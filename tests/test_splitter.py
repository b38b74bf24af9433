from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from sd4x import cli, evaluation, kernels, splitter
from sd4x.blackbox import LinearBlackBox
from sd4x.dataset import Attribute, AttributeKind, Dataset, encode
from sd4x.errors import InputError, InvariantError
from sd4x.neighborhood import build, label, load_cache, save_cache
from sd4x.patterns import extent
from sd4x.splitter import (
    Partition,
    partition_to_dict,
    run,
    validate_partition,
)
from sd4x.whitebox import fit_on_neighborhoods, subgroup_loss

from conftest import (
    candidate_thresholds,
    labeled_from_rows,
    mixed_enc,
    numeric_enc,
    random_linear_bb,
    ridge_sse_stack,
    row_outputs,
)


def test_candidate_thresholds_frozen():
    got = candidate_thresholds(np.array([96.0, 50.0, 60.0, 97.0, 60.0]))
    assert got.tolist() == [55.0, 78.0, 96.5]
    assert candidate_thresholds(np.array([7.0, 7.0, 7.0])).size == 0
    assert candidate_thresholds(np.array([0.0, 1.0, 0.0, 1.0])).tolist() == [0.5]
    assert candidate_thresholds(np.array([4.0])).size == 0


def test_adjacent_floats_split_at_the_lower_value():
    # (lo + hi) / 2 rounds to hi for these adjacent floats.  A threshold
    # of hi would send every row left and leave the right child empty.
    lo = 1.0000000000000002
    hi = float(np.nextafter(lo, np.inf))
    assert (lo + hi) / 2.0 == hi
    assert candidate_thresholds(np.array([hi, lo])).tolist() == [lo]
    rng = np.random.default_rng(0)
    attrs = (Attribute("a", AttributeKind.NUMERIC), Attribute("b", AttributeKind.NUMERIC))
    rows = [(lo if i < 10 else hi, float(rng.normal())) for i in range(20)]
    enc = encode(Dataset(attributes=attrs, classes=("c0", "c1"), rows=rows))
    bb = random_linear_bb(rng, enc)
    partition = run(enc, bb, K=2, n_synth=10, min_support=1, split_columns=["a"])
    assert [t.threshold for t in partition.trace] == [lo]
    assert [sg.members.size for sg in partition.subgroups] == [10, 10]


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


def test_run_on_cached_grams_dumps_the_bytes_of_the_fresh_set(tmp_path):
    rng = np.random.default_rng(23)
    enc = mixed_enc(rng, n=50)
    ns = label(build(enc, z=10, n_synth=30, seed=5), random_linear_bb(rng, enc))
    params = dict(K=4, lam=0.5, min_support=3)
    fresh = json.dumps(partition_to_dict(run(enc, ns=ns, **params), enc), sort_keys=True)
    path = str(tmp_path / "ns.npz")
    save_cache(path, ns)  # the run formed the Gram pieces on ns
    cached = load_cache(path)
    assert cached.samples is None
    again = json.dumps(partition_to_dict(run(enc, ns=cached, **params), enc), sort_keys=True)
    assert again == fresh


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
    partition = run(enc, bb, K=5, z=10, n_synth=20, lam=1.0, seed=5)
    curve = partition.curve()
    assert curve[0] == (1, partition.root_loss)
    assert len(curve) == len(partition.trace) + 1
    ks = [k for k, _ in curve]
    assert ks == list(range(1, len(curve) + 1))
    losses = [v for _, v in curve]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_dumped_patterns_of_every_kind_replay_from_the_trace():
    # Boolean, one-hot and ordinal splits round-trip through a dump too.
    kinds = set()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        enc = mixed_enc(rng)
        partition = run(enc, random_linear_bb(rng, enc), K=8, z=10, n_synth=15, seed=seed)
        kinds |= {enc.columns[enc.column_names.index(t.column)].kind for t in partition.trace}
        dump = json.loads(json.dumps(partition_to_dict(partition, enc)))
        back = cli._partition_from_dump(dump, enc, enc.classes)
        assert [sg.pattern for sg in back.subgroups] == [sg.pattern for sg in partition.subgroups]
    assert kinds == set(AttributeKind)


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
        Y = ns.object_outputs  # n_synth = 0: the objects' rows are every row
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


def _full_scan(engine, members, j):
    """Lowest (SSE, threshold) of a scan of every candidate boundary of column j."""
    vals = engine.enc.values[members, j]
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    whole = _whole(j, members[order], sv, engine._boundaries(sv))
    sse, _, threshold = engine._scan([whole], (np.inf, j, np.inf), 0.0)
    return sse, threshold


def _whole(j, mo, sv, ts):
    """A ``bounds`` entry of column j: one interval over every boundary ts, bounded by -inf."""
    return j, np.array([-np.inf]), (mo, sv, ts, np.array([-1, ts.size]))


def _margin(engine, members):
    """The search's pruning margin: ``_BOUND_MARGIN`` times the members' summed yy."""
    return splitter._BOUND_MARGIN * float(engine.grams[2][members].sum())


def _grid_found(engine, members):
    """Each column's lowest solved (SSE, column, threshold) on its grid, by column."""
    (cols, thresholds, sse), _ = engine._grid_splits(members, _margin(engine, members))
    found = []
    for j in dict.fromkeys(cols.tolist()):
        at = np.flatnonzero(cols == j)
        i = at[np.argmin(sse[at])]
        found.append((float(sse[i]), j, float(thresholds[i])))
    return found


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
    ns = labeled_from_rows(samples, rng.random(size=(n, S, p)))
    seen = []
    original = kernels.solve_stack

    def capture(G, C, lam, npen):
        seen.append((G.copy(), C.copy()))
        return original(G, C, lam, npen)

    monkeypatch.setattr(kernels, "solve_stack", capture)
    engine = splitter._Engine(enc, ns, 0.0, 2, [0])
    _full_scan(engine, np.arange(n, dtype=np.int64), 0)
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


# ---------------------------------------------------------------------------
# grid boundaries: one indicator product instead of a sorted scan
# ---------------------------------------------------------------------------


def _coded_problem(seed, n=40, n_synth=15, scale=1.0):
    """Numeric, boolean, 3-category nominal, 4- and 40-level ordinal attributes.

    The second numeric attribute takes 8 distinct values, so its grid
    holds every candidate boundary.
    """
    rng = np.random.default_rng(seed)
    hues, sizes = ("r", "g", "b"), ("xs", "s", "m", "l")
    ranks = tuple(f"r{i}" for i in range(40))
    attrs = (
        Attribute("x", AttributeKind.NUMERIC),
        Attribute("flag", AttributeKind.BOOLEAN),
        Attribute("hue", AttributeKind.NOMINAL, categories=hues),
        Attribute("size", AttributeKind.ORDINAL, categories=sizes),
        Attribute("rank", AttributeKind.ORDINAL, categories=ranks),
        Attribute("step", AttributeKind.NUMERIC),
    )
    rows = [
        (
            float(rng.normal()),
            bool(rng.integers(2)),
            hues[int(rng.integers(3))],
            sizes[int(rng.integers(4))],
            ranks[int(rng.integers(40))],
            float(rng.integers(8)) / 4.0,
        )
        for _ in range(n)
    ]
    enc = encode(Dataset(attributes=attrs, classes=("c0", "c1", "c2"), rows=rows))
    bb = random_linear_bb(rng, enc, scale=scale)
    ns = label(build(enc, z=10, n_synth=n_synth, seed=seed), bb)
    return enc, ns, rng


def _n_candidates(vals, min_support):
    """Candidate boundaries of one column's member values, counted directly."""
    left = np.array([np.count_nonzero(vals <= t) for t in candidate_thresholds(vals)])
    return int(np.count_nonzero((left >= min_support) & (left <= vals.size - min_support)))


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("stack_rows", [None, 3])
def test_coded_sse_agrees_with_the_boundary_scan(monkeypatch, lam, stack_rows):
    # Every grid boundary's SSE, summed from indicator rows, must match
    # kernels.scan_sse on the same column's sorted prefix sums: boolean
    # and one-hot columns as well as numeric and ordinal ones, also when
    # tiny stacks split the members into blocks of 2 rows and the grid
    # into groups of one boundary.
    enc, ns, rng = _coded_problem(31)
    if stack_rows is not None:
        d, p = enc.m + 1, len(enc.classes)
        monkeypatch.setattr(kernels, "_STACK_BYTES", stack_rows * (d * d + d * p + 1) * 8)
    engine = splitter._Engine(enc, ns, lam, 2, list(range(enc.m)))
    if stack_rows is not None:
        assert engine.grid_group == 1
    seen = []
    searched = (np.arange(enc.n), np.sort(rng.choice(enc.n, 29, replace=False)))
    for members in searched:
        # An infinite margin skips no grid point: every one is solved.
        (cols, thresholds, sse), _ = engine._grid_splits(members, np.inf)
        assert np.all(np.isfinite(sse))
        seen.extend((members, int(j), float(t), float(s)) for j, t, s in zip(cols, thresholds, sse))
    G_all, C_all, yy_all = engine.grams
    for members, j, thr, sse in seen:
        vals = enc.values[members, j]
        assert thr in candidate_thresholds(vals)
        order = np.argsort(vals, kind="stable")
        mo = members[order]
        Gpre, Cpre, yypre = (np.cumsum(a[mo], axis=0) for a in (G_all, C_all, yy_all))
        bounds = np.array([np.count_nonzero(vals <= thr)], dtype=np.int64)
        last = np.array([members.size - 1])
        want = kernels.scan_sse(Gpre, Cpre, yypre, Gpre, Cpre, yypre, bounds, lam, enc.m, last)
        np.testing.assert_allclose(sse, want[0], rtol=1e-12, atol=0)
    # Each column solves min(candidates, _GRID) grid boundaries per search.
    assert {enc.columns[j].kind for _, j, _, _ in seen} == set(AttributeKind)
    for members in searched:
        for j in range(enc.m):
            solved = sum(m is members and c == j for m, c, _, _ in seen)
            assert solved == min(_n_candidates(enc.values[members, j], 2), splitter._GRID)


def test_coded_column_under_min_support_has_no_candidate():
    enc, ns, rng = _coded_problem(33)
    flag = next(j for j, c in enumerate(enc.columns) if c.kind is AttributeKind.BOOLEAN)
    members = np.arange(enc.n)
    ones = int(np.count_nonzero(enc.values[members, flag]))
    for min_support, kept in ((min(ones, enc.n - ones), True), (min(ones, enc.n - ones) + 1, False)):
        engine = splitter._Engine(enc, ns, 1.0, min_support, list(range(enc.m)))
        found = _grid_found(engine, members)
        assert (flag in [j for _, j, _ in found]) == kept


def _brute_force_split(engine, members):
    """(sse, column, threshold) of every candidate, refitted the canonical way."""
    table = []
    for j in engine.columns:
        vals = engine.enc.values[members, j]
        for thr in candidate_thresholds(vals):
            left, right = members[vals <= thr], members[vals > thr]
            if min(left.size, right.size) < engine.min_support:
                continue
            sse = sum(
                subgroup_loss(engine.ns, part, fit_on_neighborhoods(engine.ns, part, engine.lam))
                for part in (left, right)
            )
            table.append((sse, j, float(thr)))
    return table


def test_best_split_agrees_with_a_brute_force_refit_search():
    compared = 0
    for seed in range(8):
        enc, ns, rng = _coded_problem(400 + seed, n=30, n_synth=8, scale=2.0)
        for lam in (0.0, 1.0):
            engine = splitter._Engine(enc, ns, lam, 2, list(range(enc.m)))
            for members in (np.arange(enc.n), np.sort(rng.choice(enc.n, 17, replace=False))):
                table = _brute_force_split(engine, members)
                ranked = sorted(s for s, _, _ in table)
                if ranked[1] - ranked[0] < 1e-9 * max(1.0, ranked[0]):
                    continue  # a tie below arithmetic resolution, as in criterion 7
                sse, column, threshold = min(table)
                sg = splitter.Subgroup(0, members, None, None, float("inf"))
                cand = engine.best_split(sg)
                assert (cand.column, cand.threshold) == (column, threshold), (seed, lam)
                compared += 1
    assert compared >= 24


def test_coded_children_missing_a_one_hot_level_get_exact_zeros(monkeypatch):
    # Columns: x, flag, then the one-hot block hue=r, hue=g, hue=b.  Every
    # red object has flag set and every blue one has it clear, so besides
    # the one-hot children themselves the flag children lack a level too.
    # A child's row and column of a level none of its members has must be
    # exact zeros, as in a direct sum over its rows.
    rng = np.random.default_rng(29)
    n, S, p = 24, 5, 2
    hues = ["r"] * 6 + ["b"] * 6 + ["g"] * 12
    flags = [True] * 6 + [False] * 6 + [bool(k) for k in rng.integers(2, size=12)]
    attrs = (
        Attribute("x", AttributeKind.NUMERIC),
        Attribute("flag", AttributeKind.BOOLEAN),
        Attribute("hue", AttributeKind.NOMINAL, categories=("r", "g", "b")),
    )
    order = rng.permutation(n)
    rows = [(float(rng.normal()), flags[i], hues[i]) for i in order]
    enc = encode(Dataset(attributes=attrs, classes=("c0", "c1"), rows=rows))
    samples = np.repeat(enc.values[:, None, :], S, axis=1)
    samples[:, 1:, 0] += rng.normal(scale=0.01, size=(n, S - 1))
    ns = labeled_from_rows(samples, rng.random(size=(n, S, p)))
    seen = []
    original = kernels.solve_stack

    def capture(G, C, lam, npen):
        seen.append((G.copy(), C.copy()))
        return original(G, C, lam, npen)

    monkeypatch.setattr(kernels, "solve_stack", capture)
    coded = [1, 2, 3, 4]
    engine = splitter._Engine(enc, ns, 0.0, 2, coded)
    members = np.arange(n, dtype=np.int64)
    found = _grid_found(engine, members)
    assert [j for _, j, _ in found] == coded
    ((G, C),) = seen
    k = len(coded)
    lacking = 0
    for i in range(2 * k):
        left = enc.values[members, coded[i % k]] <= 0.5
        child = members[left if i < k else ~left]
        for level in (2, 3, 4):
            absent = not np.any(enc.values[child, level])
            assert np.all(G[i][level] == 0.0) == absent
            assert np.all(G[i][:, level] == 0.0) == absent
            assert np.all(C[i][level] == 0.0) == absent
            lacking += absent
    assert lacking == 3 * 3 + 2  # 3 per one-hot pair, 1 per flag child


def _wide_coded_problem(rng, n):
    """d = 36: three numerics, a flag, a 30-category nominal and an ordinal."""
    cats = tuple(f"k{i}" for i in range(30))
    levels = ("lo", "mid", "hi", "top")
    attrs = (
        Attribute("a", AttributeKind.NUMERIC),
        Attribute("b", AttributeKind.NUMERIC),
        Attribute("c", AttributeKind.NUMERIC),
        Attribute("flag", AttributeKind.BOOLEAN),
        Attribute("cat", AttributeKind.NOMINAL, categories=cats),
        Attribute("level", AttributeKind.ORDINAL, categories=levels),
    )
    rows = [
        (
            *(float(v) for v in rng.normal(size=3)),
            bool(rng.integers(2)),
            cats[int(rng.integers(30))],
            levels[int(rng.integers(4))],
        )
        for _ in range(n)
    ]
    enc = encode(Dataset(attributes=attrs, classes=("c0", "c1", "c2"), rows=rows))
    assert enc.m == 35
    return enc, label(build(enc, z=10, n_synth=2, seed=1), random_linear_bb(rng, enc))


def _narrow_coded_problem(rng, n):
    """d = 4: a flag and a 2-category nominal, many members."""
    attrs = (
        Attribute("flag", AttributeKind.BOOLEAN),
        Attribute("cat", AttributeKind.NOMINAL, categories=("u", "v")),
    )
    rows = [(bool(rng.integers(2)), ("u", "v")[int(rng.integers(2))]) for _ in range(n)]
    enc = encode(Dataset(attributes=attrs, classes=("c0", "c1"), rows=rows))
    assert enc.m == 3
    samples = np.repeat(enc.values[:, None, :], 2, axis=1)
    samples[:, 1, 0] = 1.0 - samples[:, 1, 0]
    ns = labeled_from_rows(samples, rng.random(size=(n, 2, 2)))
    return enc, ns


@pytest.mark.parametrize(
    "make, n, n_coded", [(_wide_coded_problem, 1000, 31), (_narrow_coded_problem, 50_000, 3)]
)
def test_coded_path_peak_memory_stays_within_the_stack_budget(make, n, n_coded):
    # Gathering every member's Gram pieces at once would take 10.4 MB at
    # d = 36 and n = 1000, and 10.0 MB at d = 4 and n = 50,000: both above
    # the 8 MB bound.  The narrow case has short Gram rows and so long
    # member blocks, 7,710 rows of 25 floats each.
    rng = np.random.default_rng(37)
    enc, ns = make(rng, n)
    engine = splitter._Engine(enc, ns, 1.0, 2, list(range(enc.m)))
    members = np.arange(n, dtype=np.int64)
    G_all, C_all, yy_all = engine.grams
    gathered = members.size * (G_all[0].nbytes + C_all[0].nbytes + yy_all[0].nbytes)
    assert gathered > 4 * kernels._STACK_BYTES
    found = _grid_found(engine, members)  # warm up lazy imports
    assert [j for _, j, _ in found] == list(range(enc.m))
    coded = (AttributeKind.BOOLEAN, AttributeKind.NOMINAL)
    assert sum(enc.columns[j].kind in coded for _, j, _ in found) == n_coded
    margin = _margin(engine, members)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        engine._grid_splits(members, margin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 4 * kernels._STACK_BYTES, (peak - base) / 2**20


def test_each_column_is_sort_scanned_at_most_once_per_search(monkeypatch):
    # A column's grid comes from the indicator product.  Only a column
    # with more candidates than its grid is gathered and prefix-summed,
    # once per search at most, in one interval scan per search, and
    # kernels.scan_sse runs only inside that scan, on its boundaries.
    enc, ns, _ = _coded_problem(43, n=50, n_synth=10, scale=2.0)
    searches = []
    best_split = splitter._Engine.best_split
    scan = splitter._Engine._scan
    scan_sse = kernels.scan_sse
    lowest = splitter._lowest
    scanning = []

    def traced_best_split(self, sg):
        searches.append((sg.members, [], [], []))
        return best_split(self, sg)

    def traced_scan(self, bounds, best, margin):
        assert not searches[-1][1], "a second interval scan in one search"
        for j, _, (mo, sv, _, _) in bounds:
            # mo is the members sorted by column j, and sv their values.
            assert np.array_equal(np.sort(mo), np.sort(searches[-1][0]))
            assert np.array_equal(enc.values[mo, j], sv) and np.all(np.diff(sv) >= 0)
        scanning.append(True)
        try:
            return scan(self, bounds, best, margin)
        finally:
            scanning.pop()

    def traced_lowest(best, j, sv, ts, sses):
        # Called once for each column whose prefix sums were taken.
        assert scanning
        searches[-1][1].append(j)
        searches[-1][2].append(ts.size)
        return lowest(best, j, sv, ts, sses)

    def traced_scan_sse(*args, **kwargs):
        assert scanning, "kernels.scan_sse called outside the interval scan"
        searches[-1][3].append(len(args[6]))
        return scan_sse(*args, **kwargs)

    monkeypatch.setattr(splitter._Engine, "best_split", traced_best_split)
    monkeypatch.setattr(splitter._Engine, "_scan", traced_scan)
    monkeypatch.setattr(splitter, "_lowest", traced_lowest)
    monkeypatch.setattr(kernels, "scan_sse", traced_scan_sse)
    partition = run(enc, K=4, lam=1.0, ns=ns)
    assert len(partition.trace) == 3
    scanned = set()
    for members, cols, asked, solved in searches:
        assert len(cols) == len(set(cols)) and sum(asked) == sum(solved)
        for j in cols:
            assert _n_candidates(enc.values[members, j], 2) > splitter._GRID
        scanned.update(enc.columns[j].name for j in cols)
    assert scanned == {"x", "rank"}


class _SortCounter:
    """Stands in for the numpy module in splitter: counts sort and argsort calls."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("sort", "argsort"):
            return attr

        def counted(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        return counted


def test_each_search_sorts_each_allowed_column_exactly_once(monkeypatch):
    # The candidate pass sorts every allowed column; a column with live
    # intervals is scanned from that same sorted view, not sorted again.
    enc, ns, rng = _coded_problem(43, n=50, n_synth=10, scale=2.0)
    scanned = []
    scan_sse = kernels.scan_sse

    def counted_scan_sse(*args):
        scanned.append(len(args[6]))
        return scan_sse(*args)

    monkeypatch.setattr(kernels, "scan_sse", counted_scan_sse)
    for columns in (list(range(enc.m)), [0, 2, 6]):
        engine = splitter._Engine(enc, ns, 1.0, 2, columns)
        for members in (np.arange(enc.n), np.sort(rng.choice(enc.n, 35, replace=False))):
            counter = _SortCounter()
            scanned.clear()
            with monkeypatch.context() as m:
                m.setattr(splitter, "np", counter)
                assert engine._search(members) is not None
            assert len(counter.calls) == len(columns), counter.calls
            assert scanned, "no interval was live, so nothing could be sorted twice"


# ---------------------------------------------------------------------------
# lazy candidates: a split's gain never exceeds its subgroup's loss
# ---------------------------------------------------------------------------


def _eager_next_split(engine, active, candidates):
    """The reference rule: search every active subgroup, keep the first best gain by id."""
    best = None
    for sid in sorted(active):
        if sid not in candidates:
            candidates[sid] = engine.best_split(active[sid])
        cand = candidates[sid]
        if cand is not None and (best is None or cand.gain > best.gain):
            best = cand
    return best


def _counted_runs(monkeypatch, enc, ns, **params):
    """(lazy dict, lazy best_split calls, eager dict, eager best_split calls)."""
    calls = []
    best_split = splitter._Engine.best_split

    def counted(self, sg):
        calls.append(sg.id)
        return best_split(self, sg)

    monkeypatch.setattr(splitter._Engine, "best_split", counted)
    out = []
    for rule in (splitter._next_split, _eager_next_split):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(splitter, "_next_split", rule)
            partition = run(enc, ns=ns, **params)
        out += [json.dumps(partition_to_dict(partition, enc), sort_keys=True), len(calls)]
    return tuple(out)


def test_lazy_candidates_give_the_eager_partition_with_fewer_searches(monkeypatch, toy_enc):
    rng = np.random.default_rng(47)
    mixed = mixed_enc(rng, n=60)
    problems = [
        (toy_enc, build(toy_enc, z=10, n_synth=30, seed=7), 0.03, 1),
        (mixed, build(mixed, z=10, n_synth=15, seed=8), 1.0, 2),
    ]
    fewer = 0
    for enc, ns, scale, min_support in problems:
        ns = label(ns, random_linear_bb(rng, enc, scale=scale))
        for K in (2, 4, 8):
            for lam in (0.0, 1.0):
                lazy, lazy_calls, eager, eager_calls = _counted_runs(
                    monkeypatch, enc, ns, K=K, lam=lam, min_support=min_support
                )
                assert lazy == eager, (enc.n, K, lam)
                assert lazy_calls <= eager_calls
                fewer += lazy_calls < eager_calls
    assert fewer >= 1


class _FixedEngine:
    """Stands in for _Engine: fixed gains per subgroup id, and a call log."""

    def __init__(self, gains):
        self.gains = gains
        self.calls = []

    def best_split(self, sg):
        self.calls.append(sg.id)
        return splitter.CandidateSplit(
            sg.id, 0, 0.5, sg.members, sg.members, None, None, 0.0, 0.0, self.gains[sg.id]
        )


def test_lazy_selection_breaks_equal_gains_by_lower_id_and_skips_small_losses():
    members = np.arange(2)
    active = {
        sid: splitter.Subgroup(sid, members, None, None, loss)
        for sid, loss in ((1, 6.0), (2, 7.0), (3, 1.0), (4, 3.0))
    }
    engine = _FixedEngine({1: 3.0, 2: 3.0, 3: 0.5, 4: 3.0})
    candidates = {}
    best = splitter._next_split(engine, active, candidates)
    # Subgroup 2 has the largest loss and is searched first; 1 then ties
    # with it and wins on its lower id; 4's loss equals the best gain, so
    # it could still tie and is searched; 3's loss is below it and is not.
    assert best.subgroup_id == 1
    assert engine.calls == [2, 1, 4]
    assert sorted(candidates) == [1, 2, 4]
    assert splitter._next_split(engine, active, candidates) is best
    assert engine.calls == [2, 1, 4]
    assert _eager_next_split(_FixedEngine(engine.gains), active, {}).subgroup_id == 1


def test_the_gain_bound_skips_a_subgroup_whose_own_sses_leave_it_a_margin_short():
    # Subgroup 1 (loss 10) gains 5.  Subgroup 2's loss, 8, does not rule
    # it out, but no split of it can gain more than its loss minus its
    # members' own least-squares SSEs, loc.  With 8 - loc + margin equal
    # to the best gain it could still tie, so it is searched; with loc
    # one ulp larger it is skipped, and not cached.
    members = np.arange(4)
    engine = _FixedEngine({1: 5.0, 2: 4.0})
    engine.grams = (None, None, np.full(4, 2500.0))
    margin = splitter._BOUND_MARGIN * float(engine.grams[2][members].sum())
    assert margin == 1.0
    for loc, searched in ((4.0, [1, 2]), (np.nextafter(4.0, np.inf), [1])):
        assert (8.0 - loc + margin < 5.0) == (len(searched) == 1)
        active = {
            1: splitter.Subgroup(1, members, None, None, 10.0),
            2: splitter.Subgroup(2, members, None, None, 8.0, loc=float(loc)),
        }
        engine.calls.clear()
        candidates = {}
        assert splitter._next_split(engine, active, candidates).subgroup_id == 1
        assert engine.calls == searched
        assert sorted(candidates) == searched


# ---------------------------------------------------------------------------
# bounded boundary scan: grid first, then only intervals that can win
# ---------------------------------------------------------------------------


def _searches(monkeypatch, enc, ns, **params):
    """(partition JSON, each search's (column, threshold, SSE), boundaries solved).

    A boundary is solved either on a grid, by the indicator product, or
    by an interval scan.
    """
    found, solved = [], []
    search = splitter._Engine._search
    ridge = splitter._Engine._ridge
    scan_sse = kernels.scan_sse

    def recorded(self, members):
        res = search(self, members)
        found.append(None if res is None else (res[1], res[2], res[0]))
        return res

    def grid_counted(self, G, C, yy, idx):
        solved.append(idx.size)
        return ridge(self, G, C, yy, idx)

    def scan_counted(*args, **kwargs):
        solved.append(len(args[6]))
        return scan_sse(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(splitter._Engine, "_search", recorded)
        m.setattr(splitter._Engine, "_ridge", grid_counted)
        m.setattr(kernels, "scan_sse", scan_counted)
        partition = run(enc, ns=ns, **params)
    return json.dumps(partition_to_dict(partition, enc), sort_keys=True), found, sum(solved)


def _bounded_and_full(monkeypatch, enc, ns, **params):
    bounded = _searches(monkeypatch, enc, ns, **params)
    with monkeypatch.context() as m:
        m.setattr(splitter, "_GRID", 1 << 40)  # every boundary is a grid point
        full = _searches(monkeypatch, enc, ns, **params)
    return bounded, full


def _assert_same_searches(got, want):
    """Same winners; the SSEs agree to rounding, as a grid SSE comes from
    the indicator product and a scanned one from prefix sums."""
    assert [f and f[:2] for f in got] == [f and f[:2] for f in want]
    for g, w in zip(got, want):
        if g is not None:
            np.testing.assert_allclose(g[2], w[2], rtol=1e-12, atol=0)


def test_bounded_search_gives_the_full_search_result(monkeypatch):
    rng = np.random.default_rng(53)
    numeric = numeric_enc(rng.normal(size=(200, 3)))
    mixed = mixed_enc(rng, n=220)
    solved = {}
    for enc in (numeric, mixed):
        ns = label(build(enc, z=10, n_synth=8, seed=9), random_linear_bb(rng, enc, scale=1.5))
        solved[enc.m] = [0, 0]
        for K in (2, 6):
            for lam in (0.0, 1.0):
                for min_support in (1, 5):
                    params = dict(K=K, lam=lam, min_support=min_support)
                    (got, got_found, got_solved), (want, want_found, want_solved) = (
                        _bounded_and_full(monkeypatch, enc, ns, **params)
                    )
                    _assert_same_searches(got_found, want_found)
                    assert got == want, (enc.m, params)
                    solved[enc.m][0] += got_solved
                    solved[enc.m][1] += want_solved
    # The bounds prune on both schemas, one-hot blocks included.
    for got_solved, want_solved in solved.values():
        assert 2 * got_solved < want_solved, solved


def test_an_interval_whose_bound_is_within_the_margin_is_scanned(monkeypatch):
    # One numeric column whose best boundary is off the grid.  Every
    # interval is given the bound best + margin, the most the rule lets
    # through: each must be scanned, so the winner is found.  One ulp
    # more and each must be skipped, leaving the grid's best.
    rng = np.random.default_rng(59)
    enc = numeric_enc(rng.normal(size=(120, 1)))
    ns = label(build(enc, z=10, n_synth=6, seed=4), random_linear_bb(rng, enc, scale=2.0))
    engine = splitter._Engine(enc, ns, 1.0, 1, [0])
    members = np.arange(enc.n, dtype=np.int64)
    full_sse, full_threshold = _full_scan(engine, members, 0)
    (grid,) = _grid_found(engine, members)
    assert full_sse < grid[0]
    edge = grid[0] + _margin(engine, members)
    grid_splits = splitter._Engine._grid_splits
    for bound, want in ((edge, (full_sse, 0, full_threshold)), (np.nextafter(edge, np.inf), grid)):

        def fixed_bounds(self, members, margin, b=bound):
            found, bounds = grid_splits(self, members, margin)
            assert bounds and all(np.all(lo < np.inf) for _, lo, _ in bounds)
            return found, [(j, np.full(lo.shape, b), view) for j, lo, view in bounds]

        with monkeypatch.context() as m:
            m.setattr(splitter._Engine, "_grid_splits", fixed_bounds)
            assert engine._search(members) == want


def test_an_inner_grid_point_whose_bound_is_within_the_margin_is_solved(monkeypatch):
    # One numeric column with candidates off its grid.  Every inner grid
    # point is given the bound incumbent + margin, where the incumbent is
    # the lowest SSE of the points always solved: the two ends and the
    # inner point with the lowest bound, the first on equal bounds.  Each
    # point must then be solved, with the bits a search solving every
    # point gives it.  One ulp more and only those three are solved.
    rng = np.random.default_rng(59)
    enc = numeric_enc(rng.normal(size=(120, 1)))
    ns = label(build(enc, z=10, n_synth=6, seed=4), random_linear_bb(rng, enc, scale=2.0))
    engine = splitter._Engine(enc, ns, 1.0, 1, [0])
    members = np.arange(enc.n, dtype=np.int64)
    margin = _margin(engine, members)
    (_, _, every), _ = engine._grid_splits(members, np.inf)
    assert every.size == splitter._GRID and np.all(np.isfinite(every))
    always = [0, 1, splitter._GRID - 1]
    edge = float(every[always].min()) + margin

    for bound, solved in ((edge, np.arange(splitter._GRID)), (np.nextafter(edge, np.inf), always)):

        def fixed(G, C, yy, b=bound):
            # Left children get the bound, right ones 0: OLS_left + OLS_right = b.
            half = G.shape[0] // 2
            return np.concatenate([np.full(half, b), np.zeros(half)])

        with monkeypatch.context() as m:
            m.setattr(kernels, "least_squares_sse", fixed)
            (_, _, sse), _ = engine._grid_splits(members, margin)
        assert np.flatnonzero(np.isfinite(sse)).tolist() == list(solved)
        assert np.array_equal(sse[solved], every[solved])


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_no_grid_point_or_interval_bound_exceeds_a_ridge_sse_it_covers(monkeypatch, lam):
    # Numeric, boolean, one-hot and ordinal columns, and a numeric-only
    # schema.  A grid point's bound OLS_left(t) + OLS_right(t) covers its
    # own SSE; an interval's bound, OLS_left(a) + OLS_right(b) plus the
    # own least-squares SSEs of the members sorted between a and b,
    # covers the SSE of every boundary inside it, so it must not exceed
    # the lowest of them, found by scanning the interval whole.  So must
    # the two end intervals', whose outer child is bounded by its
    # members' own SSEs.  Each bound must exceed the one without own
    # SSEs by exactly those of the members it adds.
    least_squares = splitter._Engine._least_squares
    problems = [_coded_problem(700 + seed, n=60, n_synth=8, scale=2.0) for seed in range(4)]
    for seed in range(2):
        rng = np.random.default_rng(710 + seed)
        enc = numeric_enc(rng.normal(size=(60, 3)))
        ns = label(build(enc, z=10, n_synth=8, seed=seed), random_linear_bb(rng, enc, scale=2.0))
        problems.append((enc, ns, rng))
    points = intervals = raised = 0
    for enc, ns, rng in problems:
        engine = splitter._Engine(enc, ns, lam, 2, list(range(enc.m)))
        # the one-hot block's bound design, or every column on numeric data
        assert (engine.bound_cols is not None) == (enc.m > 3)
        for members in (np.arange(enc.n), np.sort(rng.choice(enc.n, 45, replace=False))):
            tol = 1e-10 * float(engine.grams[2][members].sum())
            checked = []

            def checked_bounds(self, G, C, yy, idx):
                left, right = least_squares(self, G, C, yy, idx)
                assert np.all(left + right <= self._ridge(G, C, yy, idx) + tol)
                checked.append(idx.size)
                return left, right

            with monkeypatch.context() as m:
                m.setattr(splitter._Engine, "_least_squares", checked_bounds)
                _, bounds = engine._grid_splits(members, np.inf)
                m.setattr(engine, "loc", np.zeros(enc.n))
                _, plain = engine._grid_splits(members, np.inf)
            points += sum(checked)
            for (j, lo, (mo, sv, ts, g)), (_, lo_plain, _) in zip(bounds, plain):
                assert np.all(lo >= lo_plain)
                raised += np.count_nonzero(lo > lo_plain)
                t = np.r_[0, ts[g[1:-1]], mo.size]
                for i in np.flatnonzero(np.isfinite(lo_plain)):
                    added = engine.loc[mo[t[i] : t[i + 1]]].sum()
                    assert lo[i] - lo_plain[i] == pytest.approx(added, rel=1e-9, abs=1e-12 * lo[i])
                for i in range(lo.size):
                    inside = ts[g[i] + 1 : g[i + 1]]
                    if inside.size:
                        lowest, _, _ = engine._scan(
                            [_whole(j, mo, sv, inside)], (np.inf, j, np.inf), 0.0
                        )
                        assert lo[i] <= lowest + tol, (enc.m, lam, j, i)
                        intervals += 1
    assert points > 100 and intervals > 50, (points, intervals)
    assert raised > intervals // 2, (raised, intervals)


@pytest.mark.parametrize("shared_hue", [False, True])
@pytest.mark.parametrize("stack_bytes", [None, 3000])
def test_each_objects_own_bound_is_the_least_squares_sse_of_its_rows(
    monkeypatch, stack_bytes, shared_hue
):
    # Objects 0-5 keep their boolean, one-hot and ordinal values on every
    # row of their neighborhoods, as most built neighborhoods keep some
    # one-hot level; objects 6-11 vary them, and with shared_hue every
    # object keeps its hue, so the hue columns are left out of every
    # system.  Either way an object's loc is the lstsq SSE of its own
    # rows.  Object 12's first numeric column is constant on its rows:
    # its system is singular, and it gets 0.  3000 bytes solve the
    # objects at most 5 at a time.
    if stack_bytes is not None:
        monkeypatch.setattr(kernels, "_STACK_BYTES", stack_bytes)
    enc, _, rng = _coded_problem(89, n=13)
    n, S = enc.n, 30
    samples = np.repeat(enc.values[:, None, :], S, axis=1)
    samples[:, 1:, 0] += rng.normal(size=(n, S - 1))
    samples[:, 1:, 7] += rng.normal(size=(n, S - 1))
    samples[12, :, 0] = 0.3
    vary = samples[6:, 1:]
    vary[..., 1] = rng.integers(2, size=vary.shape[:2])
    if not shared_hue:
        vary[..., 2:5] = np.eye(3)[rng.integers(3, size=vary.shape[:2])]
    vary[..., 5] = rng.integers(4, size=vary.shape[:2])
    vary[..., 6] = rng.integers(40, size=vary.shape[:2])
    Y = rng.normal(size=(n, S, 3))
    ns = labeled_from_rows(samples, Y)
    engine = splitter._Engine(enc, ns, 1.0, 1, list(range(enc.m)))
    keep = engine.bound_cols
    assert keep is not None
    G_all, C_all, yy_all = engine.grams
    for i in range(12):
        Xa = np.hstack([samples[i], np.ones((S, 1))])
        W = np.linalg.lstsq(Xa, Y[i], rcond=None)[0]
        assert engine.loc[i] == pytest.approx(np.sum((Xa @ W - Y[i]) ** 2), rel=1e-9)
        (plain,) = kernels.least_squares_sse(
            G_all[i][np.ix_(keep, keep)][None], C_all[i][keep][None], yy_all[i : i + 1]
        )
        # decoupling or leaving out constant columns is what solves these
        assert (plain == -np.inf) == (i < 6 or shared_hue)
    assert engine.loc[12] == 0.0


@pytest.mark.parametrize("scan_rows", [None, 2, 3, 7])
def test_one_interval_stack_gives_each_boundary_its_column_scan_bits(monkeypatch, scan_rows):
    # Boundaries of several columns share one buffer, solved whenever the
    # next column does not fit; a column too long for it is scanned alone.
    # Every boundary's SSE must keep the bits of a kernels.scan_sse call
    # on its column alone, and the lowest (SSE, column, threshold) must be
    # the same.
    enc, ns, rng = _coded_problem(83, n=50, n_synth=6, scale=2.0)
    engine = splitter._Engine(enc, ns, 1.0, 2, list(range(enc.m)))
    if scan_rows is not None:
        engine.scan_rows = scan_rows
    members = np.sort(rng.choice(enc.n, 40, replace=False))
    live, want, lowest = [], [], []
    for j in range(enc.m):
        vals = enc.values[members, j]
        order = np.argsort(vals, kind="stable")
        sv, mo = vals[order], members[order]
        ts = engine._boundaries(sv)
        ts = ts[rng.random(ts.size) < 0.7]
        if ts.size == 0:
            continue
        pre = [np.cumsum(a[mo], axis=0) for a in engine.grams]
        sse = kernels.scan_sse(*pre, *pre, ts, 1.0, enc.m, np.full(ts.size, mo.size - 1))
        i = int(np.argmin(sse))
        lowest.append((float(sse[i]), j, float(splitter._midpoints(sv[ts[i] - 1], sv[ts[i]]))))
        live.append(_whole(j, mo, sv, ts))
        want.append(sse)
    sizes = [ts.size for _, _, (_, _, ts, _) in live]
    assert len(live) >= 4 and sum(s < 7 for s in sizes) >= 2 and sum(s >= 7 for s in sizes) >= 2
    got = []
    scan_sse = kernels.scan_sse

    def recorded(*args, **kwargs):
        out = scan_sse(*args, **kwargs)
        got.append(out)
        return out

    monkeypatch.setattr(kernels, "scan_sse", recorded)
    assert engine._scan(live, (np.inf, -1, np.inf), 0.0) == min(lowest)
    assert np.array_equal(np.concatenate(got), np.concatenate(want))
    # The default buffer holds them all; with a small one, long columns
    # are scanned alone and short ones share a buffer solved in parts.
    assert (len(got) == 1) == (scan_rows is None)


def test_least_squares_bound_is_monotone_and_below_the_ridge_sse():
    # Adding rows never lowers a least-squares SSE, and a ridge fit never
    # beats it: on nested prefixes and suffixes of random member orders.
    rng = np.random.default_rng(61)
    enc = numeric_enc(rng.normal(size=(50, 3)))
    ns = label(build(enc, z=10, n_synth=5, seed=3), random_linear_bb(rng, enc, scale=2.0))
    G_all, C_all, yy_all = splitter.neighborhood_grams(ns)
    tol = 1e-10 * float(yy_all.sum())
    for _ in range(4):
        order = rng.permutation(enc.n)
        Gpre, Cpre, yypre = (np.cumsum(a[order], axis=0) for a in (G_all, C_all, yy_all))
        prefix = (Gpre[:-1], Cpre[:-1], yypre[:-1])
        suffix = (Gpre[-1] - Gpre[:-1], Cpre[-1] - Cpre[:-1], yypre[-1] - yypre[:-1])
        for pieces, step in ((prefix, 1.0), (suffix, -1.0)):
            ols = kernels.least_squares_sse(*pieces)
            solved = np.isfinite(ols)
            assert solved.sum() >= enc.n - 3
            assert np.all(step * np.diff(ols[solved]) >= -tol)
            for lam in (0.0, 1.0):
                ridge = ridge_sse_stack(*pieces, lam, enc.m)
                assert np.all(ols <= ridge + tol)


def _pooled_lstsq_sse(X, Y, members):
    X = X[members].reshape(-1, X.shape[2])
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    Y = Y[members].reshape(-1, Y.shape[2])
    return float(np.sum((Xa @ (np.linalg.pinv(Xa) @ Y) - Y) ** 2))


def test_reduced_design_bound_matches_a_pseudoinverse_fit_on_one_hot_data():
    rng = np.random.default_rng(67)
    enc = mixed_enc(rng, n=60)
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=6, seed=5), bb)
    outputs = row_outputs(ns, bb)
    engine = splitter._Engine(enc, ns, 1.0, 1, list(range(enc.m)))
    keep = engine.bound_cols
    assert keep is not None and keep.size == enc.m  # one color column dropped
    G_all, C_all, yy_all = engine.grams
    for size in (5, 20, 60):
        members = np.sort(rng.choice(enc.n, size, replace=False))
        G, C, yy = G_all[members].sum(0), C_all[members].sum(0), yy_all[members].sum()
        (full,) = kernels.least_squares_sse(G[None], C[None], np.array([yy]))
        assert full == -np.inf  # the one-hot block sums to the intercept
        (got,) = kernels.least_squares_sse(
            G[np.ix_(keep, keep)][None], C[keep][None], np.array([yy])
        )
        assert got == pytest.approx(_pooled_lstsq_sse(ns.samples, outputs, members), rel=1e-9)


def test_a_nominal_row_with_two_ones_keeps_the_full_design(monkeypatch):
    # A tampered cache could hold rows that are not one-hot.  Here half
    # the synthetic rows also set the last color, which the black box
    # weighs heavily: dropping that column would raise the bounds above
    # the SSEs they must bound.
    rng = np.random.default_rng(71)
    enc = mixed_enc(rng, n=200)
    color = splitter.attribute_slices(enc.attributes)[3]
    blue = color.stop - 1
    built = build(enc, z=10, n_synth=8, seed=6)
    X = built.samples
    tampered = rng.random(X.shape[:2]) < 0.5
    tampered[:, 0] = False  # the objects' own rows stay as encoded
    X[..., blue][tampered] = 1.0
    assert np.any(X[..., color].sum(axis=2) == 2.0)
    bb = random_linear_bb(rng, enc, scale=1.0)
    bb.weights[:, blue] = [6.0, -6.0]
    ns = labeled_from_rows(X, row_outputs(built, bb))
    assert splitter._Engine(enc, ns, 1.0, 1, list(range(enc.m))).bound_cols is None
    for K in (2, 6):
        for min_support in (1, 5):
            (got, got_found, _), (want, want_found, _) = _bounded_and_full(
                monkeypatch, enc, ns, K=K, lam=1.0, min_support=min_support
            )
            _assert_same_searches(got_found, want_found)
            assert got == want


def test_bounded_search_peak_memory_stays_within_the_stack_budget():
    # 60 numeric columns, d = 61: holding every column's grid children at
    # once would take about 59 MB, far above the 8 MB bound.
    rng = np.random.default_rng(73)
    n = 48
    enc = numeric_enc(rng.normal(size=(n, 60)))
    ns = label(build(enc, z=10, n_synth=70, seed=7), random_linear_bb(rng, enc, scale=0.3))
    engine = splitter._Engine(enc, ns, 1.0, 1, list(range(enc.m)))
    _, C_all, _ = engine.grams
    d, p = C_all.shape[1:]
    held = enc.m * 2 * splitter._GRID * (d * d + d * p + 1) * 8
    assert held > 4 * kernels._STACK_BYTES
    sg = splitter.Subgroup(0, np.arange(n, dtype=np.int64), None, None, float("inf"))
    engine.best_split(sg)  # warm up lazy imports
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        engine.best_split(sg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 4 * kernels._STACK_BYTES, (peak - base) / 2**20


def test_interval_scan_holds_one_column_prefix_sums_at_a_time():
    # The one temporary of a search that grows with the members is a
    # column's prefix sums, 12.5 MB here.  Three long columns are scanned
    # alone and three short ones share the buffer; with each column's
    # sums freed before the next one's are taken, the scan's peak is one
    # column's prefix sums plus the 8 MB bound of the stacks.
    rng = np.random.default_rng(79)
    n = 8000
    enc = numeric_enc(rng.normal(size=(n, 12)))
    ns = label(build(enc, z=10, n_synth=2, seed=8), random_linear_bb(rng, enc))
    engine = splitter._Engine(enc, ns, 1.0, 1, list(range(enc.m)))
    prefix = sum(a.nbytes for a in engine.grams)
    assert prefix > 5 * kernels._STACK_BYTES
    members = np.arange(n, dtype=np.int64)
    bounds = []
    for j, size in enumerate((400, 50, 400, 50, 400, 50)):
        vals = enc.values[members, j]
        order = np.argsort(vals, kind="stable")
        ts = engine._boundaries(vals[order])
        ts = ts[:: ts.size // size][:size]
        assert (ts.size >= engine.scan_rows) == (size == 400)
        bounds.append(_whole(j, members[order], vals[order], ts))
    engine._scan(bounds[:1], (np.inf, -1, np.inf), 0.0)  # warm up lazy imports
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        engine._scan(bounds, (np.inf, -1, np.inf), 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= prefix + 4 * kernels._STACK_BYTES, (peak - base) / 2**20
