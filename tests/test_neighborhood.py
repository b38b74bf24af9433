from __future__ import annotations

import gc
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sd4x import kernels, neighborhood
from sd4x.dataset import Attribute, AttributeKind, Dataset, encode
from sd4x.errors import InputError
from sd4x.neighborhood import (
    NeighborhoodSet,
    build,
    cache_key,
    discretize,
    estimate_covariance,
    label,
    load_cache,
    save_cache,
    scaled_cholesky,
)

from sd4x.whitebox import _grams_from_rows

from conftest import mixed_enc, numeric_enc, random_linear_bb, row_outputs


def test_covariance_frozen_two_points():
    # rows (0,0) and (2,2): sample covariance with ddof=1 is [[2,2],[2,2]]
    X = np.array([[0.0, 0.0], [2.0, 2.0]])
    got = estimate_covariance(X)
    assert np.allclose(got, [[2.0, 2.0], [2.0, 2.0]], atol=1e-14)


def test_covariance_oracle_parity_and_degenerate():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    assert np.allclose(estimate_covariance(X), np.cov(X.T, ddof=1), atol=1e-12)
    single = estimate_covariance(X[:1])
    assert np.all(single == 0.0)


def test_scaled_cholesky_reconstructs_scaled_matrix():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4))
    sigma = A @ A.T + 0.5 * np.eye(4)
    for z in (1, 4, 10):
        L = scaled_cholesky(sigma, z)
        assert np.allclose(L @ L.T, sigma / z, rtol=1e-6, atol=1e-9)
    with pytest.raises(InputError):
        scaled_cholesky(sigma, 0)


def test_scaled_cholesky_handles_singular_input():
    v = np.array([[1.0, 2.0, 3.0]])
    sigma = v.T @ v  # rank one
    L = scaled_cholesky(sigma, 2)
    assert np.all(np.isfinite(L))
    assert np.allclose(L @ L.T, sigma / 2, atol=1e-6)
    zero = np.zeros((3, 3))
    L0 = scaled_cholesky(zero, 1)
    assert np.all(np.isfinite(L0))


def _mixed_dataset():
    attrs = (
        Attribute("x", AttributeKind.NUMERIC),
        Attribute("flag", AttributeKind.BOOLEAN),
        Attribute("hue", AttributeKind.NOMINAL, categories=("r", "g", "b")),
        Attribute("sev", AttributeKind.ORDINAL, categories=("lo", "mid", "hi")),
    )
    rows = [
        (0.5, True, "r", "lo"),
        (1.5, False, "g", "mid"),
        (-0.5, True, "b", "hi"),
        (2.5, False, "r", "mid"),
    ]
    return Dataset(attributes=attrs, classes=("p", "q"), rows=rows)


def test_discretize_by_attribute_kind():
    enc = encode(_mixed_dataset())
    raw = np.array(
        [
            # x,  flag, hue=r, hue=g, hue=b, sev
            [0.77, 0.49, 0.9, 0.8, -0.5, 1.49],
            [0.77, 0.50, 0.2, 1.3, 1.05, 1.50],
            [0.77, 0.80, 0.5, 0.5, 0.5, -3.00],
            [0.77, 1.20, 0.98, 1.02, 0.0, 9.00],
        ]
    )
    out = discretize(raw, enc)
    assert np.allclose(out[:, 0], 0.77)
    assert out[:, 1].tolist() == [0.0, 1.0, 1.0, 1.0]
    # one-hot: the entry nearest to 1 wins, ties go to the lowest index
    assert out[0, 2:5].tolist() == [1.0, 0.0, 0.0]
    assert out[1, 2:5].tolist() == [0.0, 0.0, 1.0]
    assert out[2, 2:5].tolist() == [1.0, 0.0, 0.0]
    # 0.98 and 1.02 are equally close to 1: the tie goes to the lower index
    assert out[3, 2:5].tolist() == [1.0, 0.0, 0.0]
    # ordinal: round half up, then clamp into the level range
    assert out[:, 5].tolist() == [1.0, 2.0, 0.0, 2.0]


def test_build_shapes_and_first_row_is_the_object():
    rng = np.random.default_rng(3)
    enc = numeric_enc(rng.normal(size=(12, 4)))
    ns = build(enc, z=10, n_synth=25, seed=9)
    assert ns.samples.shape == (12, 26, 4)
    assert np.array_equal(ns.samples[:, 0, :], enc.values)
    assert ns.n_objects == 12 and ns.size == 26
    assert ns.z == 10 and ns.n_synth == 25 and ns.seed == 9


def test_object_rows_survive_discretization():
    enc = encode(_mixed_dataset())
    ns = build(enc, z=10, n_synth=15, seed=4)
    assert np.array_equal(ns.samples[:, 0, :], enc.values)


def test_build_determinism_and_thread_independence():
    rng = np.random.default_rng(8)
    enc = numeric_enc(rng.normal(size=(20, 3)))
    a = build(enc, z=10, n_synth=30, seed=5, threads=1)
    b = build(enc, z=10, n_synth=30, seed=5, threads=4)
    c = build(enc, z=10, n_synth=30, seed=5, threads=1)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, c.samples)
    d = build(enc, z=10, n_synth=30, seed=6)
    assert not np.array_equal(a.samples, d.samples)


def _reference_build(enc, z, n_synth, seed):
    """One object at a time: its own substream, x0 + g @ L.T, then discretize."""
    L = scaled_cholesky(estimate_covariance(enc.values), z)
    out = np.empty((enc.n, 1 + n_synth, enc.m))
    for i in range(enc.n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        x0 = enc.values[i]
        rows = np.empty((1 + n_synth, enc.m))
        rows[0] = x0
        if n_synth:
            g = rng.standard_normal((n_synth, enc.m))
            rows[1:] = x0 + g @ L.T
        out[i] = discretize(rows, enc)
    return out


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize(
    "chunk_rows,n_synth",
    [
        (1, 15),  # one object per chunk
        (64, 15),  # four objects per chunk, one in the last
        (64, 0),  # the objects alone
        (neighborhood._BUILD_CHUNK_ROWS, 15),  # every object in one chunk
    ],
)
def test_chunked_build_equals_per_object_reference(monkeypatch, threads, chunk_rows, n_synth):
    enc = mixed_enc(np.random.default_rng(21), n=13)
    monkeypatch.setattr(neighborhood, "_BUILD_CHUNK_ROWS", chunk_rows)
    ns = build(enc, z=3, n_synth=n_synth, seed=11, threads=threads)
    assert np.array_equal(ns.samples, _reference_build(enc, 3, n_synth, 11))


@pytest.mark.parametrize(
    "m,n_synth",
    [
        (35, 600),  # each product above OpenBLAS's threading size
        (35, 430),
        (100, 600),
        (100, 100),  # OpenBLAS's own threads would move these products' bits
    ],
)
def test_real_size_blocked_build_equals_per_object_reference(monkeypatch, m, n_synth):
    # Both sides hold BLAS to one thread, which the build does itself.
    enc = numeric_enc(np.random.default_rng(23).normal(size=(4, m)))
    monkeypatch.setattr(neighborhood, "_BUILD_CHUNK_ROWS", 1)
    ns = build(enc, z=10, n_synth=n_synth, seed=3, threads=2)
    with kernels.one_blas_thread():
        reference = _reference_build(enc, 10, n_synth, 3)
    assert np.array_equal(ns.samples, reference)


@pytest.mark.parametrize(
    "chunk_rows,workers",
    [
        (1, 13),  # one object per chunk: a worker per object
        (64, 4),  # four chunks
        (neighborhood._BUILD_CHUNK_ROWS, None),  # one chunk: no pool
    ],
)
def test_pool_has_no_more_workers_than_one_thread_chunks(monkeypatch, chunk_rows, workers):
    started = []

    class SerialPool:
        """Records max_workers and runs the work in order on this thread."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(kernels, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(neighborhood, "_BUILD_CHUNK_ROWS", chunk_rows)
    enc = mixed_enc(np.random.default_rng(21), n=13)
    ns = build(enc, z=3, n_synth=15, seed=11, threads=10_000)
    assert started == []  # build only plans
    samples = ns.samples
    assert started == ([workers] if workers else [])
    assert np.array_equal(samples, _reference_build(enc, 3, 15, 11))
    for threads in (0, -1):
        with pytest.raises(InputError, match="threads"):
            build(enc, z=3, n_synth=15, seed=11, threads=threads)


def test_pooled_build_under_rapid_thread_switching(monkeypatch):
    # Eight workers on disjoint ranges of 40 objects, switching every
    # microsecond: an overlap of ranges or buffers would show in the bits.
    enc = mixed_enc(np.random.default_rng(24), n=40)
    monkeypatch.setattr(neighborhood, "_BUILD_CHUNK_ROWS", 32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        samples = build(enc, z=3, n_synth=15, seed=2, threads=8).samples
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(samples, _reference_build(enc, 3, 15, 2))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_build_peak_memory_is_the_samples_plus_a_few_chunks(threads):
    # Measured over the first read of the samples, which draws them all.
    rng = np.random.default_rng(22)
    enc = mixed_enc(rng, n=300)
    n_synth = 300
    build(enc, z=10, n_synth=n_synth, seed=1, threads=threads).samples  # warm up lazy imports
    ns = build(enc, z=10, n_synth=n_synth, seed=1, threads=threads)
    tracemalloc.start()
    try:
        ns.samples
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    step = max(1, neighborhood._BUILD_CHUNK_ROWS // (1 + n_synth))
    chunk_bytes = step * (1 + n_synth) * enc.m * 8
    assert ns.samples.nbytes > 8 * chunk_bytes
    assert peak <= ns.samples.nbytes + 4 * chunk_bytes, (peak - ns.samples.nbytes) / chunk_bytes


def test_per_object_streams_differ():
    rng = np.random.default_rng(10)
    enc = numeric_enc(np.tile(rng.normal(size=(1, 3)), (5, 1)) + rng.normal(scale=2.0, size=(5, 3)))
    ns = build(enc, z=5, n_synth=40, seed=0)
    deltas0 = ns.samples[0, 1:, :] - enc.values[0]
    deltas1 = ns.samples[1, 1:, :] - enc.values[1]
    assert not np.allclose(deltas0, deltas1)


def test_n_synth_zero_keeps_only_the_object():
    rng = np.random.default_rng(2)
    enc = numeric_enc(rng.normal(size=(6, 2)))
    ns = build(enc, z=10, n_synth=0, seed=1)
    assert ns.samples.shape == (6, 1, 2)
    with pytest.raises(InputError):
        build(enc, z=10, n_synth=-1, seed=1)


def test_label_shapes_and_probability_rows():
    rng = np.random.default_rng(6)
    enc = numeric_enc(rng.normal(size=(9, 3)), classes=("a", "b", "c"))
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=12, seed=2), bb)
    assert ns.bb_outputs is None  # a labeled set keeps no row's outputs
    G, C, yy = ns.grams
    assert G.shape == (9, 4, 4) and C.shape == (9, 4, 3) and yy.shape == (9,)
    # Every row's outputs sum to 1, so the outputs' column sums add up to the rows.
    assert np.allclose(C[:, 3].sum(axis=1), 13.0, atol=1e-9)
    assert ns.object_outputs.shape == (9, 3)
    direct = bb.predict_batch(enc.values)
    assert np.allclose(ns.object_outputs, direct, atol=1e-12)
    outputs = row_outputs(ns, bb)
    assert outputs.shape == (9, 13, 3)
    assert np.allclose(outputs.sum(axis=2), 1.0, atol=1e-9)


class _FixedWidthBox:
    """A black box that returns zeros of a given width for every row."""

    def __init__(self, classes, width):
        self.classes = classes
        self.width = width

    def predict_batch(self, X):
        return np.zeros((X.shape[0], self.width))


def _chunked_reference(ns, bb, per_call):
    """Rows from ``ns.samples``, outputs from a call per ``per_call`` objects, pieces from rows."""
    X = ns.samples
    n, S, m = X.shape
    Y = np.concatenate(
        [
            bb.predict_batch(X[start : start + per_call].reshape(-1, m))
            for start in range(0, n, per_call)
        ]
    ).reshape(n, S, -1)
    with kernels.one_blas_thread():
        return _grams_from_rows(X, Y, 1), Y[:, 0]


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("objects_per_call", [1, 3, None])  # None: the default chunk
def test_streamed_label_has_the_bits_of_the_rows_reference(monkeypatch, threads, objects_per_call):
    rng = np.random.default_rng(25)
    enc = mixed_enc(rng, n=13)
    bb = random_linear_bb(rng, enc)
    n_synth = 15
    if objects_per_call is not None:
        monkeypatch.setattr(neighborhood, "_LABEL_CHUNK", objects_per_call * (1 + n_synth))
    per_call = max(1, neighborhood._LABEL_CHUNK // (1 + n_synth))
    ns = label(build(enc, z=3, n_synth=n_synth, seed=11, threads=threads), bb)
    (G, C, yy), outputs = _chunked_reference(ns, bb, per_call)
    assert np.array_equal(ns.grams[0], G)
    assert np.array_equal(ns.grams[1], C)
    assert np.array_equal(ns.grams[2], yy)
    assert np.array_equal(ns.object_outputs, outputs)
    # The rows read afterwards are those of the per-object reference.
    assert np.array_equal(ns.samples, _reference_build(enc, 3, n_synth, 11))
    # A set that holds its rows is labeled through the same chunks.
    held = build(enc, z=3, n_synth=n_synth, seed=11, threads=threads)
    held.samples
    label(held, bb)
    for a, b in zip(held.grams, ns.grams):
        assert np.array_equal(a, b)
    assert np.array_equal(held.object_outputs, ns.object_outputs)


def test_streamed_label_under_rapid_thread_switching(monkeypatch):
    # Eight workers streaming one object per chunk, switching every
    # microsecond: an overlap of buffers would show in the bits.
    rng = np.random.default_rng(26)
    enc = mixed_enc(rng, n=40)
    bb = random_linear_bb(rng, enc)
    monkeypatch.setattr(neighborhood, "_LABEL_CHUNK", 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ns = label(build(enc, z=3, n_synth=15, seed=2, threads=8), bb)
    finally:
        sys.setswitchinterval(interval)
    (G, C, yy), outputs = _chunked_reference(ns, bb, 1)
    for a, b in zip(ns.grams, (G, C, yy)):
        assert np.array_equal(a, b)
    assert np.array_equal(ns.object_outputs, outputs)


def test_label_makes_one_call_at_a_time_on_whole_objects(monkeypatch):
    monkeypatch.setattr(neighborhood, "_LABEL_CHUNK", 50)  # three objects of 16 rows
    rng = np.random.default_rng(27)
    enc = mixed_enc(rng, n=20)
    inner = random_linear_bb(rng, enc)
    active, calls = [], []
    lock = threading.Lock()

    class Watch:
        classes = inner.classes

        def predict_batch(self, X):
            with lock:
                active.append(1)
                overlap = len(active) > 1
            calls.append((X.shape[0], overlap))
            try:
                time.sleep(0.002)  # let the other workers run meanwhile
                return inner.predict_batch(X)
            finally:
                with lock:
                    active.pop()

    label(build(enc, z=3, n_synth=15, seed=4, threads=4), Watch())
    assert sorted(rows for rows, _ in calls) == [32] + [48] * 6
    assert not any(overlap for _, overlap in calls)


def _label_bound(ns, m, p, per_call, workers) -> int:
    """Bytes that labeling ``ns`` may add at its peak.

    The pieces and object outputs of every object, and per worker one
    chunk's rows and outputs, one normals buffer and one chunk's worth of
    pieces, for the temporaries of forming them.
    """
    n, size = ns.n_objects, ns.size
    per_object = (m + 1) ** 2 + (m + 1) * p + 1 + p
    objects = min(per_call, n)
    normals = min(max(1, neighborhood._BUILD_CHUNK_ROWS // workers // size), objects)
    per_worker = objects * (size * (m + p) + per_object) + normals * ns.n_synth * m
    return (n * per_object + workers * per_worker) * 8


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_streamed_label_peak_memory_is_the_pieces_plus_a_chunk_per_worker(monkeypatch, threads):
    # Thirty objects per call, ten chunks.  Discretizing a normals
    # buffer's rows takes temporaries of about that buffer's size while
    # no chunk outputs are held; with 2048 rows per buffer (6, 3 and 1
    # objects at 1, 2 and 4 workers) they stay below a chunk's outputs,
    # as on neighborhood-mixed, where a buffer holds 6 of a call's 109
    # objects.
    n, n_synth, per_call = 300, 300, 30
    monkeypatch.setattr(neighborhood, "_LABEL_CHUNK", per_call * (1 + n_synth))
    monkeypatch.setattr(neighborhood, "_BUILD_CHUNK_ROWS", 2048)
    enc = mixed_enc(np.random.default_rng(28), n=n)
    bb = _FixedWidthBox(("a", "b", "c"), 3)
    label(build(enc, z=10, n_synth=n_synth, seed=1, threads=threads), bb)  # warm up
    ns = build(enc, z=10, n_synth=n_synth, seed=1, threads=threads)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        label(ns, bb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = n * (1 + n_synth) * enc.m * 8
    chunk = per_call * (1 + n_synth) * enc.m * 8
    assert rows >= 8 * chunk
    bound = _label_bound(ns, enc.m, 3, per_call, threads)
    assert peak - base <= bound, (peak - base) / bound
    assert ns._samples is None  # no row is kept


def test_label_peak_memory_on_held_rows_is_the_pieces_plus_a_chunk(monkeypatch):
    monkeypatch.setattr(neighborhood, "_LABEL_CHUNK", 1000)  # two objects per call
    rng = np.random.default_rng(12)
    ns = NeighborhoodSet(samples=rng.normal(size=(40, 500, 4)), z=10, n_synth=499, seed=0)
    bb = _FixedWidthBox(("a", "b", "c"), 3)
    label(ns, bb)  # warm up
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        label(ns, bb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = _label_bound(ns, 4, 3, 2, 1)
    assert peak - base <= bound, (peak - base) / bound


@pytest.mark.parametrize("width", [2, 4])
def test_label_rejects_outputs_of_the_wrong_width(width):
    rng = np.random.default_rng(13)
    ns = NeighborhoodSet(samples=rng.normal(size=(3, 5, 2)), z=10, n_synth=4, seed=0)
    with pytest.raises(InputError, match="shape"):
        label(ns, _FixedWidthBox(("a", "b", "c"), width))


def test_cache_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    enc = mixed_enc(rng, n=7)
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=10, seed=3), bb)
    path = str(tmp_path / "ns.npz")
    save_cache(path, ns)
    loaded = load_cache(path)
    assert loaded is not None
    for got, want in zip(loaded.grams, ns.grams):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    assert np.array_equal(loaded.object_outputs, ns.object_outputs)
    assert (loaded.z, loaded.n_synth, loaded.seed) == (10, 10, 3)
    assert loaded.samples is None and loaded.bb_outputs is None
    assert (loaded.n_objects, loaded.size) == (ns.n_objects, ns.size) == (7, 11)


def test_cache_refuses_unlabeled_and_tolerates_garbage(tmp_path):
    rng = np.random.default_rng(4)
    enc = numeric_enc(rng.normal(size=(4, 2)))
    ns = build(enc, z=10, n_synth=5, seed=3)
    with pytest.raises(InputError, match="unlabeled"):
        save_cache(str(tmp_path / "x.npz"), ns)
    # Rows and outputs without pieces: label forms them, so make one by hand.
    bb = random_linear_bb(rng, enc)
    unformed = NeighborhoodSet(ns.samples, 10, 5, 3, bb_outputs=row_outputs(ns, bb))
    with pytest.raises(InputError, match="Gram pieces"):
        save_cache(str(tmp_path / "x.npz"), unformed)
    assert os.listdir(tmp_path) == []
    assert load_cache(str(tmp_path / "missing.npz")) is None
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a zip")
    assert load_cache(str(bad)) is None
    bad.write_bytes(b"")
    assert load_cache(str(bad)) is None
    with open(bad, "wb") as fh:
        np.save(fh, np.zeros(3))  # a bare .npy array, not an archive
    assert load_cache(str(bad)) is None


def _spoiled(key, index, value):
    """(key, edit): set one entry of the good file's array ``key``."""

    def edit(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key][index] = value

    return key, edit


def _replaced(key, value):
    """(key, edit): replace the good file's array ``key``, or drop it for None."""

    def edit(arrays):
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value

    return key, edit


def test_cache_rejects_truncated_and_malformed_files(tmp_path):
    rng = np.random.default_rng(5)
    enc = numeric_enc(rng.normal(size=(6, 2)))
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=40, seed=3), bb)
    path = tmp_path / "ns.npz"
    save_cache(str(path), ns)
    blob = path.read_bytes()
    cut = tmp_path / "cut.npz"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for size in (10, len(blob) // 2, len(blob) - 30):
            cut.write_bytes(blob[:size])
            assert load_cache(str(cut)) is None, size
        gc.collect()  # an unclosed file warns when it is collected
    unclosed = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not unclosed, str(unclosed[0].message)
    malformed = tmp_path / "malformed.npz"
    # Six objects, m = 2 columns plus the intercept, p = 2 classes, and
    # n_synth = 40: symmetric Gram matrices whose corners hold 41 rows.
    G = np.tile(np.eye(3), (6, 1, 1))
    G[:, 0, 1] = G[:, 1, 0] = 0.25
    G[:, 2, 2] = 41.0
    good = {
        "G": G,
        "C": np.ones((6, 3, 2)),
        "yy": np.ones(6),
        "outputs": np.full((6, 2), 0.5),
        "meta": np.array([10, 40, 3], dtype=np.int64),
    }
    cases = [
        # wrong rank
        _replaced("G", np.ones((6, 3))),
        _replaced("C", np.ones((6, 3))),
        _replaced("yy", np.ones((6, 1))),
        _replaced("outputs", np.ones((6, 41, 2))),
        # wrong dtype
        _replaced("G", G.astype(np.int64)),
        _replaced("C", np.ones((6, 3, 2), dtype=np.float32)),
        _replaced("yy", np.ones(6, dtype=np.int64)),
        _replaced("outputs", np.ones((6, 2), dtype=np.int64)),
        # shapes that disagree
        _replaced("G", np.ones((6, 3, 4))),
        _replaced("G", G[:5]),
        _replaced("C", np.ones((5, 3, 2))),
        _replaced("C", np.ones((6, 4, 2))),
        _replaced("yy", np.ones(7)),
        _replaced("outputs", np.ones((5, 2))),
        _replaced("outputs", np.ones((6, 3))),
        _replaced("G", np.ones((6, 0, 0))),
        # meta
        _replaced("meta", good["meta"][:2]),
        _replaced("meta", np.array([10.0, 40.0, 3.0])),
        # missing arrays
        *(_replaced(key, None) for key in good),
        # values
        _spoiled("G", (2, 0, 1), 0.25 + 1e-12),  # not symmetric
        _spoiled("G", (2, 2, 2), 40.0),  # corner other than 1 + n_synth
        _spoiled("yy", 2, -1e-300),
        *(
            _spoiled(key, index, value)
            for key, index in (
                ("G", (2, 1, 1)),
                ("C", (2, 1, 0)),
                ("yy", 2),
                ("outputs", (2, 1)),
            )
            for value in (np.nan, np.inf, -np.inf)
        ),
    ]
    for key, edit in cases:
        arrays = dict(good)
        edit(arrays)
        with open(malformed, "wb") as fh:
            np.savez(fh, **arrays)
        assert load_cache(str(malformed)) is None, key
    with open(malformed, "wb") as fh:
        np.savez(fh, **good)
    assert load_cache(str(malformed)) is not None
    # A file in the older row format is a miss.
    with open(malformed, "wb") as fh:
        np.savez(fh, samples=ns.samples, bb_outputs=row_outputs(ns, bb), meta=good["meta"])
    assert load_cache(str(malformed)) is None


def test_cache_save_that_raises_leaves_no_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    enc = numeric_enc(rng.normal(size=(4, 2)))
    ns = label(build(enc, z=10, n_synth=5, seed=3), random_linear_bb(rng, enc))

    def partial_write(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", partial_write)
    path = tmp_path / "ns.npz"
    with pytest.raises(OSError):
        save_cache(str(path), ns)
    assert os.listdir(tmp_path) == []


def test_cache_key_sensitivity():
    base = cache_key("h", 0, 10, 250, "bb")
    assert base == cache_key("h", 0, 10, 250, "bb")
    assert base != cache_key("h2", 0, 10, 250, "bb")
    assert base != cache_key("h", 1, 10, 250, "bb")
    assert base != cache_key("h", 0, 11, 250, "bb")
    assert base != cache_key("h", 0, 10, 251, "bb")
    assert base != cache_key("h", 0, 10, 250, "bb2")


def test_synthetic_moments_track_requested_spread():
    rng = np.random.default_rng(12)
    enc = numeric_enc(rng.normal(size=(30, 3)) @ np.diag([1.0, 2.0, 0.5]))
    sigma = estimate_covariance(enc.values)
    z = 4
    ns = build(enc, z=z, n_synth=4000, seed=7)
    cloud = ns.samples[0, 1:, :]
    centered = cloud - enc.values[0]
    sample_cov = np.cov(centered.T, ddof=1)
    assert np.linalg.norm(sample_cov - sigma / z) / np.linalg.norm(sigma / z) < 0.15
