"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Each test prints ``[criterion N] PASS/FAIL (details)`` before asserting,
so the verdict is visible either way.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from sd4x import evaluation, kernels, splitter
from sd4x.blackbox import (
    Condition,
    LinearBlackBox,
    PiecewiseLinearBlackBox,
    Regime,
)
from sd4x.dataset import (
    Attribute,
    AttributeKind,
    EncodedMatrix,
    encoded_columns,
)
from sd4x.errors import InvariantError
from sd4x.evaluation import elbow, fit_global_wb, fit_local_wb, mse, rank_labels, topk_f1
from sd4x.neighborhood import build, estimate_covariance, label
from sd4x.whitebox import fit_on_neighborhoods, subgroup_loss

from conftest import candidate_thresholds, fit_rows, mixed_enc, numeric_enc, random_linear_bb


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: ridge solver against an independent dense oracle
# ---------------------------------------------------------------------------


def test_criterion_1_ridge_matches_independent_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    worst_grad = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 201))
        m = int(rng.integers(2, 51))
        p = int(rng.integers(1, 5))
        lam = (0.0, 0.1, 1.0, 10.0)[trial % 4]
        X = rng.normal(size=(n, m))
        Y = rng.normal(size=(n, p))
        model = fit_rows(X, Y, lam=lam)
        A = np.hstack([X, np.ones((n, 1))])
        M = A.T @ A + lam * np.diag([1.0] * m + [0.0])
        expected = np.linalg.solve(M, A.T @ Y)
        got = np.vstack([model.coefficients.T, model.intercepts])
        rel = float(
            np.linalg.norm(got - expected) / (1.0 + np.linalg.norm(expected))
        )
        worst_rel = max(worst_rel, rel)

        if trial < 10:
            # the objective is quadratic, so a central difference evaluates
            # its gradient exactly; at the solution it must vanish
            B = expected.copy()
            J = lambda W: float(
                np.sum((A @ W - Y) ** 2) + lam * np.sum(W[:-1] ** 2)
            )
            eps = 1e-4
            for _ in range(5):
                j = int(rng.integers(m + 1))
                k = int(rng.integers(p))
                Bp = B.copy()
                Bm = B.copy()
                Bp[j, k] += eps
                Bm[j, k] -= eps
                grad = abs(J(Bp) - J(Bm)) / (2 * eps)
                worst_grad = max(worst_grad, grad)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-8 and worst_grad <= 1e-6 and elapsed < 30.0
    _verdict(
        1,
        ok,
        f"max rel err {worst_rel:.2e}, max grad {worst_grad:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: splitting never increases the unpenalized loss
# ---------------------------------------------------------------------------


def test_criterion_2_child_losses_bounded_by_parent_at_lambda_zero():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    enc = mixed_enc(rng, n=60)
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=20, seed=7), bb)
    checked = 0
    worst = 0.0
    while checked < 200:
        size = int(rng.integers(4, enc.n + 1))
        subset = np.sort(rng.choice(enc.n, size=size, replace=False)).astype(np.int64)
        j = int(rng.integers(enc.m))
        vals = enc.values[subset, j]
        distinct = np.unique(vals)
        if distinct.size < 2:
            continue
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        thr = float(rng.choice(mids))
        left = subset[vals <= thr]
        right = subset[vals > thr]
        if left.size == 0 or right.size == 0:
            continue
        parent = fit_on_neighborhoods(ns, subset, 0.0)
        parent_loss = subgroup_loss(ns, subset, parent)
        lm = fit_on_neighborhoods(ns, left, 0.0)
        rm = fit_on_neighborhoods(ns, right, 0.0)
        child_sum = subgroup_loss(ns, left, lm) + subgroup_loss(ns, right, rm)
        excess = (child_sum - parent_loss) / max(parent_loss, 1e-12)
        worst = max(worst, excess)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(2, ok, f"200 draws, worst excess {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 3 and 4: greedy traces and partition invariants over many runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def twenty_runs():
    out = []
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        enc = numeric_enc(rng.random((40, 4)))
        bb = random_linear_bb(rng, enc, scale=2.0)
        partition = splitter.run(
            enc, bb, K=6, z=10, n_synth=15, lam=1.0, seed=seed
        )
        out.append((enc, partition))
    return out


def test_criterion_3_loss_trace_never_increases(twenty_runs):
    worst = -np.inf
    for _, partition in twenty_runs:
        level = partition.root_loss
        for t in partition.trace:
            worst = max(worst, t.loss_after - level)
            level = t.loss_after
    ok = worst <= 1e-9
    _verdict(3, ok, f"20 runs, max step increase {worst:.2e}")


def test_criterion_4_partition_invariants_hold_and_tampering_is_caught(twenty_runs):
    ok = True
    detail = "validated 20 partitions"
    try:
        for enc, partition in twenty_runs:
            splitter.validate_partition(partition, enc)
    except InvariantError as exc:
        ok = False
        detail = f"honest partition rejected: {exc}"

    multi = [(e, p) for e, p in twenty_runs if len(p.subgroups) >= 2]
    if ok and multi:
        enc, partition = multi[0]
        sg = partition.subgroups[0]
        stolen = splitter.Subgroup(
            id=sg.id,
            members=sg.members[:-1],
            pattern=sg.pattern,
            model=sg.model,
            loss=sg.loss,
        )
        broken = splitter.Partition(
            subgroups=[stolen] + list(partition.subgroups[1:]),
            trace=partition.trace,
            root_loss=partition.root_loss,
            global_loss=partition.global_loss,
            config=partition.config,
        )
        try:
            splitter.validate_partition(broken, enc)
            ok = False
            detail = "dropped member not caught"
        except InvariantError:
            pass
        try:
            splitter.validate_partition(partition, enc, K=1)
            ok = False
            detail = "budget overflow not caught"
        except InvariantError:
            pass
    _verdict(4, ok, detail)


# ---------------------------------------------------------------------------
# criteria 5 and 6: regime recovery on a piecewise-constant black box
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def regime_design():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    n = 600
    values = np.empty((n, 10))
    values[:, :6] = rng.random((n, 6))
    values[:, 6:] = (rng.random((n, 4)) < 0.5).astype(np.float64)
    attrs = tuple(
        [Attribute(f"x{j}", AttributeKind.NUMERIC) for j in range(6)]
        + [Attribute(f"b{j}", AttributeKind.BOOLEAN) for j in range(4)]
    )
    classes = ("r0", "r1", "r2")
    enc = EncodedMatrix(
        values=values,
        columns=encoded_columns(attrs),
        attributes=attrs,
        classes=classes,
    )
    zeros = np.zeros((3, 10))
    regimes = []
    conditions = (
        (Condition("x0", "le", 1.0 / 3.0),),
        (Condition("x0", "gt", 1.0 / 3.0), Condition("x0", "le", 2.0 / 3.0)),
        (Condition("x0", "gt", 2.0 / 3.0),),
    )
    for r in range(3):
        biases = np.zeros(3)
        biases[r] = 4.0
        regimes.append(Regime(conditions=conditions[r], weights=zeros, biases=biases))
    bb = PiecewiseLinearBlackBox(
        classes=classes, columns=enc.column_names, regimes=tuple(regimes)
    )
    ns = label(build(enc, z=10000, n_synth=50, seed=99), bb)
    curve, partition = splitter.loss_curve(
        enc, K_max=10, lam=0.0, min_support=2, ns=ns
    )
    elapsed = time.perf_counter() - start
    return {
        "enc": enc,
        "ns": ns,
        "curve": curve,
        "partition": partition,
        "build_seconds": elapsed,
    }


def _candidate_gap(values: np.ndarray, target: float) -> float:
    """Spacing between the candidate thresholds straddling ``target``."""
    cands = np.asarray(candidate_thresholds(values))
    below = cands[cands <= target]
    above = cands[cands > target]
    return float(above.min() - below.max())


def test_criterion_5_recovers_regime_structure(regime_design):
    start = time.perf_counter()
    curve = regime_design["curve"]
    partition = regime_design["partition"]
    enc = regime_design["enc"]
    losses = [v for _, v in curve]

    monotone = all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    by_k = dict(curve)
    drop = 1.0 - by_k.get(3, losses[-1]) / losses[0]
    knee = elbow(curve)

    x0 = enc.values[:, 0]
    first_two = partition.trace[:2]
    on_x0 = all(t.column == "x0" for t in first_two)
    thresholds = sorted(t.threshold for t in first_two)
    targets = (1.0 / 3.0, 2.0 / 3.0)
    within_gap = on_x0 and all(
        abs(thr - tgt) <= _candidate_gap(x0, tgt)
        for thr, tgt in zip(thresholds, targets)
    )
    elapsed = regime_design["build_seconds"] + (time.perf_counter() - start)
    ok = (
        monotone
        and drop >= 0.95
        and knee == 3
        and within_gap
        and elapsed < 120.0
    )
    _verdict(
        5,
        ok,
        f"drop at K=3 {drop:.1%}, elbow {knee}, "
        f"thresholds {[round(t, 4) for t in thresholds]}, {elapsed:.1f}s",
    )


def test_criterion_6_partition_mse_sits_between_global_and_local(regime_design):
    # The 1.10 ratio bound is known not to hold on this design and the
    # assertion is left failing on purpose. With piecewise-constant targets,
    # all loss on both sides of the ratio comes from neighborhoods whose
    # clouds straddle a regime boundary: a per-object surrogate fits a
    # sloped plane through its own cloud's step and absorbs about two
    # thirds of the step variance, while the shared subgroup surrogate
    # predicts near the regime constant and cannot. That pins the ratio
    # near 3 regardless of z (measured 3.43 here; 1.93-3.08 for
    # z in 10..1000, where the regime-recovery check above breaks instead).
    # Designs that dodge this by keeping every cloud inside one regime
    # drive both losses to float noise and would make the bound a seed
    # lottery, so they are not used. The measured ratio is printed below.
    ns = regime_design["ns"]
    curve = regime_design["curve"]
    n = ns.n_objects
    knee = elbow(curve) or 3
    by_k = dict(curve)
    mse_k = mse(by_k[knee], n)
    _, global_loss = fit_global_wb(ns, 0.0)
    local_loss = fit_local_wb(ns, 0.0)
    mse_global = mse(global_loss, n)
    mse_local = mse(local_loss, n)

    ordered = (
        mse_global >= mse_k * (1.0 - 1e-9)
        and mse_k >= mse_local * (1.0 - 1e-9)
    )
    ratio = mse_k / mse_local if mse_local > 0 else np.inf
    close_to_local = ratio <= 1.10
    ok = ordered and close_to_local
    _verdict(
        6,
        ok,
        f"mse global {mse_global:.4g} >= K*={knee} {mse_k:.4g} >= "
        f"local {mse_local:.4g}; ratio to local {ratio:.2f} (need <= 1.10)",
    )


# ---------------------------------------------------------------------------
# criterion 7: greedy split agrees with exhaustive search on small instances
# ---------------------------------------------------------------------------


def test_criterion_7_exhaustive_agreement_on_small_instances():
    start = time.perf_counter()
    agreements = 0
    total = 0
    mismatches = []
    seed = 0
    while total < 100:
        seed += 1
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(4, 9))
        x = np.sort(rng.random(n))
        # steer the logistic's inflection inside the x range so the targets
        # are decisively curved and the optimum is not a float-noise tie
        a = float(rng.uniform(3.0, 6.0))
        center = float(rng.uniform(x[1], x[-2]))
        enc = numeric_enc(x.reshape(-1, 1))
        bb = LinearBlackBox(
            classes=enc.classes,
            columns=enc.column_names,
            weights=np.array([[a], [-a]]),
            biases=np.array([-a * center, a * center]),
        )
        ns = label(build(enc, z=10, n_synth=0, seed=0), bb)

        A = np.hstack([x.reshape(-1, 1), np.ones((n, 1))])
        Y = ns.object_outputs  # n_synth = 0: the objects' rows are every row
        table = []
        for t in range(1, n):
            sse = 0.0
            for rows in (slice(0, t), slice(t, n)):
                Ar, Yr = A[rows], Y[rows]
                W = np.linalg.pinv(Ar) @ Yr
                sse += float(np.sum((Ar @ W - Yr) ** 2))
            table.append((sse, (x[t - 1] + x[t]) / 2.0))
        ranked = sorted(s for s, _ in table)
        if len(ranked) > 1 and ranked[1] - ranked[0] < 1e-9 * max(1.0, ranked[0]):
            # a tie below arithmetic resolution cannot distinguish two
            # correct implementations; draw a fresh generic instance
            continue
        best = min(table, key=lambda st: st[0])

        partition = splitter.run(enc, K=2, lam=0.0, min_support=1, ns=ns)
        total += 1
        if len(partition.subgroups) == 2:
            got_thr = partition.trace[0].threshold
            got_sse = partition.global_loss
            if (
                abs(got_thr - best[1]) <= 1e-12
                and abs(got_sse - best[0]) <= 1e-9 * max(1.0, best[0])
            ):
                agreements += 1
            else:
                mismatches.append((seed, got_thr, best[1]))
        else:
            mismatches.append((seed, None, best[1]))
    elapsed = time.perf_counter() - start
    ok = agreements == total == 100
    _verdict(
        7,
        ok,
        f"{agreements}/{total} agree, mismatches {mismatches[:3]}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: ranking F1 against an independent confusion-matrix oracle
# ---------------------------------------------------------------------------


def test_criterion_8_topk_f1_matches_oracle():
    def oracle(y_true, y_pred, p):
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

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 1001))
        p = int(rng.integers(2, 11))
        bb = rng.random((n, p))
        wb = rng.random((n, p))
        k = int(rng.integers(1, p + 1))
        want = oracle(rank_labels(bb, k).tolist(), rank_labels(wb, k).tolist(), p)
        worst = max(worst, abs(topk_f1(bb, wb, k) - want))

    frozen_a = topk_f1(
        np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]]),
        np.array([[0.6, 0.4], [0.4, 0.6], [0.2, 0.8]]),
        1,
    )
    frozen_b = topk_f1(
        np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.1, 0.9]]),
        np.array([[1.0, 0.0]] * 4),
        1,
    )
    ok = (
        worst <= 1e-12
        and abs(frozen_a - 2.0 / 3.0) <= 1e-12
        and abs(frozen_b - 1.0 / 3.0) <= 1e-12
    )
    _verdict(8, ok, f"50 draws, max |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 9: subgroup surrogates are directionally diverse when regimes are
# ---------------------------------------------------------------------------


def _directional_design(direction_per_regime: bool):
    rng = np.random.default_rng(909)
    n = 450
    values = rng.random((n, 6))
    attrs = tuple(Attribute(f"x{j}", AttributeKind.NUMERIC) for j in range(6))
    enc = EncodedMatrix(
        values=values,
        columns=encoded_columns(attrs),
        attributes=attrs,
        classes=("yes", "no"),
    )
    conditions = (
        (Condition("x0", "le", 1.0 / 3.0),),
        (Condition("x0", "gt", 1.0 / 3.0), Condition("x0", "le", 2.0 / 3.0)),
        (Condition("x0", "gt", 2.0 / 3.0),),
    )
    regimes = []
    for r in range(3):
        weights = np.zeros((2, 6))
        biases = np.zeros(2)
        if direction_per_regime:
            weights[0, 1 + r] = 4.0
            biases[0] = -2.0
        else:
            weights[0, 1] = 4.0
            biases[0] = -2.0 + 1.2 * r
        regimes.append(Regime(conditions=conditions[r], weights=weights, biases=biases))
    bb = PiecewiseLinearBlackBox(
        classes=enc.classes, columns=enc.column_names, regimes=tuple(regimes)
    )
    # narrow neighborhoods keep each cloud inside its own regime, so the
    # fitted directions reflect the regime's designed coefficient vector
    ns = label(build(enc, z=10000, n_synth=50, seed=17), bb)
    partition = splitter.run(enc, K=3, lam=0.0, min_support=2, ns=ns)
    rows = np.stack([sg.model.coefficients[0] for sg in partition.subgroups])
    return partition, evaluation.pairwise_cosines(rows)


def test_criterion_9_coefficient_diversity_tracks_regime_directions():
    diverse_partition, diverse_cos = _directional_design(True)
    control_partition, control_cos = _directional_design(False)
    got_three = (
        len(diverse_partition.subgroups) == 3
        and len(control_partition.subgroups) == 3
    )
    ok = (
        got_three
        and diverse_cos.size == 3
        and float(diverse_cos.max()) <= 0.1
        and float(control_cos.min()) >= 0.9
    )
    _verdict(
        9,
        ok,
        f"diverse max |cos| {diverse_cos.max():.3f}, "
        f"control min |cos| {control_cos.min():.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 10: synthetic neighborhoods have the declared moments
# ---------------------------------------------------------------------------


def test_criterion_10_neighborhood_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    base = rng.normal(size=(12, 5)) @ np.diag([1.0, 3.0, 0.5, 2.0, 1.5])
    enc = numeric_enc(base)
    sigma = estimate_covariance(enc.values)
    z = 4
    n_synth = 20000
    ns = build(enc, z=z, n_synth=n_synth, seed=13)
    cloud = ns.samples[0, 1:, :] - enc.values[0]
    target = sigma / z

    mean_ok = bool(
        np.all(
            np.abs(cloud.mean(axis=0))
            <= 4.0 * np.sqrt(np.diag(target) / n_synth)
        )
    )
    sample_cov = np.cov(cloud.T, ddof=1)
    rel_frob = float(
        np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
    )
    elapsed = time.perf_counter() - start
    ok = mean_ok and rel_frob <= 0.05 and elapsed < 10.0
    _verdict(
        10,
        ok,
        f"mean within 4 sigma: {mean_ok}, cov rel Frobenius {rel_frob:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 11: the CLI is byte-deterministic across repeats and threads
# ---------------------------------------------------------------------------


def test_criterion_11_cli_byte_determinism(tmp_path):
    from sd4x.cli import main

    spec = {
        "attributes": [
            {"name": "x0", "kind": "numeric"},
            {"name": "x1", "kind": "numeric"},
            {"name": "flag", "kind": "boolean"},
        ],
        "classes": ["pos", "neg"],
        "n": 50,
        "regimes": [
            {
                "conditions": [{"column": "x0", "op": "le", "value": 0.5}],
                "weights": [[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                "biases": [0.0, 0.0],
            },
            {
                "conditions": [{"column": "x0", "op": "gt", "value": 0.5}],
                "weights": [[0.0, -2.0, 1.0], [0.0, 0.0, 0.0]],
                "biases": [0.5, 0.0],
            },
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    gen = tmp_path / "gen"
    assert main(["synth", "--spec", str(spec_path), "--out", str(gen), "--seed", "4"]) == 0

    blobs = []
    for i, threads in enumerate(("1", "4", "1")):
        out = tmp_path / f"partition_{i}.json"
        code = main(
            [
                "explain",
                "--data",
                str(gen / "data.csv"),
                "--schema",
                str(gen / "schema.json"),
                "--blackbox",
                str(gen / "blackbox.json"),
                "--k",
                "4",
                "--z",
                "10",
                "--n-synth",
                "30",
                "--lambda",
                "0.5",
                "--seed",
                "2",
                "--threads",
                threads,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _verdict(11, ok, f"3 runs, threads 1/4/1, {len(blobs[0])} bytes each")


def test_criterion_11_run_bytes_on_wide_data_at_threads_1_and_2():
    # At m = 100 and n_synth = 100 OpenBLAS's own threads give the build's
    # and the Gram pieces' products other last bits than one thread does.
    # The run holds BLAS to one thread and pools both stages, so its bytes
    # depend neither on its threads nor on the caller's BLAS thread count.
    rng = np.random.default_rng(12)
    enc = numeric_enc(rng.random((100, 100)), classes=("a", "b", "c"))
    bb = random_linear_bb(rng, enc)

    def dump(threads):
        partition = splitter.run(
            enc, bb, K=3, n_synth=100, seed=5, threads=threads, split_columns=["x0", "x1", "x2"]
        )
        return json.dumps(splitter.partition_to_dict(partition, enc), sort_keys=True)

    blobs = [dump(1), dump(2)]
    funcs = kernels._find_openblas()
    if funcs is not None:
        get, put = funcs
        saved = get()
        try:
            for count in (1, 2):
                put(count)
                blobs.append(dump(1))
        finally:
            put(saved)
    assert all(blob == blobs[0] for blob in blobs)
