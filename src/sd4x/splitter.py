"""Greedy subgroup discovery over explained objects.

The algorithm starts from one subgroup holding every explained object
and repeatedly applies the best available binary split until the
subgroup budget ``K`` is reached or no split reduces the loss.  The
loss of a subgroup is the sum of squared errors of its fitted surrogate
over the pooled neighborhoods of its members; the loss of a partition
is the sum over its subgroups.

Candidate generation scans every allowed column of a subgroup: members
are sorted by column value, per-object Gram pieces are accumulated as
prefix sums, and both children of every candidate boundary are solved
straight from those sums, the right child as the total minus the
prefix.  The scan only ranks candidates; the winning split's children
are refitted through the canonical pooled-fit path, and a split is
applied only when the children's summed loss actually improves on the
parent's.  All reductions break ties deterministically: lower column
index first, then lower threshold, then lower subgroup id.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dataset import EncodedMatrix, content_hash, decode_row
from .errors import InputError, InvariantError
from .neighborhood import NeighborhoodSet, build, label
from .patterns import (
    Pattern,
    closed_form,
    extent,
    pattern_to_conditions,
    refine,
    render,
)
from .whitebox import (
    WhiteBoxModel,
    feature_importance,
    fit_on_neighborhoods,
    model_to_dict,
    neighborhood_grams,
    subgroup_loss,
)

_GAIN_GUARD = 1e-12
_TOP_FEATURES = 5


@dataclass
class Subgroup:
    id: int
    members: np.ndarray
    pattern: Pattern
    model: WhiteBoxModel
    loss: float


@dataclass
class CandidateSplit:
    subgroup_id: int
    column: int
    threshold: float
    left_members: np.ndarray
    right_members: np.ndarray
    left_model: WhiteBoxModel
    right_model: WhiteBoxModel
    left_loss: float
    right_loss: float
    gain: float


@dataclass
class TraceEntry:
    iteration: int
    subgroup: int
    column: str
    threshold: float
    gain: float
    loss_after: float


@dataclass
class Partition:
    subgroups: list[Subgroup]
    trace: list[TraceEntry]
    root_loss: float
    global_loss: float
    config: dict = field(default_factory=dict)

    def curve(self) -> list[tuple[int, float]]:
        """Loss after each greedy step: [(1, root loss), (2, loss after split 1), ...]."""
        return [(1, self.root_loss)] + [(t.iteration + 1, t.loss_after) for t in self.trace]


def candidate_thresholds(values: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values of a column."""
    sv = np.unique(np.asarray(values, dtype=np.float64))
    if sv.size < 2:
        return np.empty(0)
    return (sv[:-1] + sv[1:]) / 2.0


class _Engine:
    def __init__(
        self,
        enc: EncodedMatrix,
        ns: NeighborhoodSet,
        lam: float,
        min_support: int,
        columns: list[int],
    ) -> None:
        self.enc = enc
        self.ns = ns
        self.lam = lam
        self.min_support = min_support
        self.columns = columns
        self.grams = neighborhood_grams(ns)
        self.npen = enc.m

    def _scan_column(self, members: np.ndarray, j: int) -> tuple[float, float] | None:
        vals = self.enc.values[members, j]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        mo = members[order]
        n = members.size
        jumps = np.nonzero(sv[1:] > sv[:-1])[0] + 1
        jumps = jumps[(jumps >= self.min_support) & (jumps <= n - self.min_support)]
        if jumps.size == 0:
            return None
        G_all, C_all, yy_all = self.grams
        Gpre, Cpre, yypre = G_all[mo], C_all[mo], yy_all[mo]
        for a in (Gpre, Cpre, yypre):
            np.cumsum(a, axis=0, out=a)
        sses = kernels.scan_sse(
            Gpre, Cpre, yypre, Gpre[-1], Cpre[-1], yypre[-1], jumps, self.lam, self.npen
        )
        best = int(np.argmin(sses))
        t = int(jumps[best])
        threshold = (sv[t - 1] + sv[t]) / 2.0
        return float(sses[best]), float(threshold)

    def best_split(self, sg: Subgroup) -> CandidateSplit | None:
        """Best candidate split of a subgroup, or None when no split exists."""
        if sg.members.size < 2 * self.min_support:
            return None

        best: tuple[float, int, float] | None = None
        for j in self.columns:
            res = self._scan_column(sg.members, j)
            if res is None:
                continue
            sse, threshold = res
            if best is None or sse < best[0]:
                best = (sse, j, threshold)
        if best is None:
            return None
        _, column, threshold = best
        mask = self.enc.values[sg.members, column] <= threshold
        left = sg.members[mask]
        right = sg.members[~mask]
        left_model = fit_on_neighborhoods(self.ns, left, self.lam)
        right_model = fit_on_neighborhoods(self.ns, right, self.lam)
        left_loss = subgroup_loss(self.ns, left, left_model)
        right_loss = subgroup_loss(self.ns, right, right_model)
        return CandidateSplit(
            subgroup_id=sg.id,
            column=column,
            threshold=threshold,
            left_members=left,
            right_members=right,
            left_model=left_model,
            right_model=right_model,
            left_loss=left_loss,
            right_loss=right_loss,
            gain=sg.loss - (left_loss + right_loss),
        )


def _resolve_columns(enc: EncodedMatrix, split_columns) -> list[int]:
    if split_columns is None:
        return list(range(enc.m))
    if split_columns == "non-text":
        return [
            j
            for j, col in enumerate(enc.columns)
            if enc.attributes[col.source].text_field is None
        ]
    names = list(split_columns)
    lookup = {c.name: j for j, c in enumerate(enc.columns)}
    out = []
    for name in names:
        if name not in lookup:
            raise InputError(f"unknown split column {name!r}")
        out.append(lookup[name])
    if not out:
        raise InputError("split column filter selected no columns")
    return sorted(set(out))


def run(
    enc: EncodedMatrix,
    bb=None,
    K: int = 10,
    *,
    z: int = 10,
    n_synth: int = 250,
    lam: float = 1.0,
    min_support: int = 2,
    seed: int = 0,
    threads: int = 1,
    split_columns=None,
    ns: NeighborhoodSet | None = None,
    validate: bool = True,
) -> Partition:
    """Greedy partition of the explained objects into at most K subgroups."""
    if K < 1:
        raise InputError(f"K must be >= 1, got {K}")
    if lam < 0:
        raise InputError(f"lambda must be >= 0, got {lam}")
    if min_support < 1:
        raise InputError(f"min_support must be >= 1, got {min_support}")
    if enc.n < 1:
        raise InputError("no explained objects")
    if ns is None:
        if bb is None:
            raise InputError("either a black box or labeled neighborhoods are required")
        ns = label(build(enc, z=z, n_synth=n_synth, seed=seed, threads=threads), bb)
    if ns.bb_outputs is None:
        raise InputError("neighborhoods are missing cached black-box outputs")
    if ns.n_objects != enc.n:
        raise InputError(
            f"{ns.n_objects} neighborhoods vs {enc.n} encoded objects"
        )

    columns = _resolve_columns(enc, split_columns)
    engine = _Engine(enc, ns, lam, min_support, columns)

    members = np.arange(enc.n, dtype=np.int64)
    root_model = fit_on_neighborhoods(ns, members, lam)
    root = Subgroup(
        id=0,
        members=members,
        pattern=Pattern.unrestricted(len(enc.attributes)),
        model=root_model,
        loss=subgroup_loss(ns, members, root_model),
    )
    active: dict[int, Subgroup] = {0: root}
    candidates: dict[int, CandidateSplit | None] = {}
    if K > 1:
        candidates[0] = engine.best_split(root)
    next_id = 1
    trace: list[TraceEntry] = []

    while len(active) < K:
        best: CandidateSplit | None = None
        for sid in sorted(active):
            cand = candidates.get(sid)
            if cand is None:
                continue
            if best is None or cand.gain > best.gain:
                best = cand
        if best is None:
            break
        parent = active[best.subgroup_id]
        guard = _GAIN_GUARD * parent.loss if parent.loss > 0.0 else 0.0
        if best.gain <= guard:
            break
        col = enc.columns[best.column]
        left = Subgroup(
            id=next_id,
            members=best.left_members,
            pattern=refine(parent.pattern, enc.attributes, col, "le", best.threshold),
            model=best.left_model,
            loss=best.left_loss,
        )
        right = Subgroup(
            id=next_id + 1,
            members=best.right_members,
            pattern=refine(parent.pattern, enc.attributes, col, "gt", best.threshold),
            model=best.right_model,
            loss=best.right_loss,
        )
        next_id += 2
        del active[parent.id]
        candidates.pop(parent.id, None)
        active[left.id] = left
        active[right.id] = right
        if len(active) < K:
            candidates[left.id] = engine.best_split(left)
            candidates[right.id] = engine.best_split(right)
        loss_after = float(sum(active[sid].loss for sid in sorted(active)))
        trace.append(
            TraceEntry(
                iteration=len(trace) + 1,
                subgroup=parent.id,
                column=col.name,
                threshold=best.threshold,
                gain=best.gain,
                loss_after=loss_after,
            )
        )

    subgroups = [active[sid] for sid in sorted(active)]
    global_loss = float(sum(sg.loss for sg in subgroups))
    partition = Partition(
        subgroups=subgroups,
        trace=trace,
        root_loss=root.loss,
        global_loss=global_loss,
        config={
            "k": K,
            "z": ns.z,
            "n_synth": ns.n_synth,
            "lambda": lam,
            "min_support": min_support,
            "seed": ns.seed,
            "split_columns": (
                split_columns
                if split_columns in (None, "non-text")
                else list(split_columns)
            ),
            "data_hash": content_hash(enc),
        },
    )
    if validate:
        validate_partition(partition, enc, K)
    return partition


def check_cover(partition: Partition, n: int, K: int | None = None) -> None:
    """At most K subgroups whose members disjointly cover 0..n-1.

    K defaults to the partition's configured budget.  Raises
    InvariantError on violation.
    """
    if K is None:
        K = int(partition.config.get("k", len(partition.subgroups)))
    if len(partition.subgroups) > K:
        raise InvariantError(
            f"{len(partition.subgroups)} subgroups exceed the budget K={K}"
        )
    seen = np.concatenate([sg.members for sg in partition.subgroups])
    if seen.size != n or not np.array_equal(np.sort(seen), np.arange(n)):
        raise InvariantError("subgroups do not disjointly cover the explained objects")


def validate_partition(partition: Partition, enc: EncodedMatrix, K: int | None = None) -> None:
    """Check the partition invariants; raises InvariantError on violation.

    The subgroups must disjointly cover every explained object, respect
    the budget, and each pattern's extent over the explained objects
    must equal the stored member set exactly.
    """
    check_cover(partition, enc.n, K)
    rows = [decode_row(enc.values[i], enc) for i in range(enc.n)]
    for sg in partition.subgroups:
        ext = extent(sg.pattern, rows, enc.attributes)
        if not np.array_equal(ext, np.sort(sg.members)):
            raise InvariantError(
                f"subgroup {sg.id}: pattern extent does not match its members"
            )


def loss_curve(
    enc: EncodedMatrix,
    bb=None,
    K_max: int = 10,
    **params,
) -> tuple[list[tuple[int, float]], Partition]:
    """Loss after each greedy step of a single K_max run: [(K, loss), ...]."""
    partition = run(enc, bb, K_max, **params)
    return partition.curve(), partition


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def partition_to_dict(partition: Partition, enc: EncodedMatrix) -> dict:
    rows = [decode_row(enc.values[i], enc) for i in range(enc.n)]
    subgroups = []
    for sg in partition.subgroups:
        member_rows = [rows[i] for i in sg.members]
        closed = closed_form(sg.pattern, member_rows, enc.attributes)
        top: dict[str, list[dict]] = {}
        for ci, cls in enumerate(enc.classes):
            ranked = feature_importance(sg.model, ci, enc.column_names)
            top[cls] = [
                {"column": name, "coefficient": coef, "share": share}
                for name, coef, share in ranked[:_TOP_FEATURES]
            ]
        subgroups.append(
            {
                "id": sg.id,
                "size": int(sg.members.size),
                "members": [int(i) for i in sg.members],
                "pattern": render(sg.pattern, enc.attributes),
                "pattern_closed": render(closed, enc.attributes),
                "conditions": pattern_to_conditions(sg.pattern, enc.attributes),
                "model": model_to_dict(sg.model, enc.column_names, enc.classes),
                "loss": sg.loss,
                "top_features": top,
            }
        )
    return {
        "config": partition.config,
        "root_loss": partition.root_loss,
        "global_loss": partition.global_loss,
        "subgroups": subgroups,
        "trace": [
            {
                "iter": t.iteration,
                "subgroup": t.subgroup,
                "column": t.column,
                "threshold": t.threshold,
                "gain": t.gain,
                "loss_after": t.loss_after,
            }
            for t in partition.trace
        ],
    }
