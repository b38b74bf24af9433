from __future__ import annotations

import gc
import os
import sys
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

from conftest import mixed_enc, numeric_enc, random_linear_bb


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
    assert started == ([workers] if workers else [])
    assert np.array_equal(ns.samples, _reference_build(enc, 3, 15, 11))
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
        ns = build(enc, z=3, n_synth=15, seed=2, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(ns.samples, _reference_build(enc, 3, 15, 2))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_build_peak_memory_is_the_samples_plus_a_few_chunks(threads):
    rng = np.random.default_rng(22)
    enc = mixed_enc(rng, n=300)
    n_synth = 300
    build(enc, z=10, n_synth=n_synth, seed=1, threads=threads)  # warm up lazy imports
    tracemalloc.start()
    try:
        ns = build(enc, z=10, n_synth=n_synth, seed=1, threads=threads)
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
    assert ns.bb_outputs is not None
    assert ns.bb_outputs.shape == (9, 13, 3)
    assert np.allclose(ns.bb_outputs.sum(axis=2), 1.0, atol=1e-9)
    direct = bb.predict_batch(enc.values)
    assert np.allclose(ns.bb_outputs[:, 0, :], direct, atol=1e-12)


class _FixedWidthBox:
    """A black box that returns zeros of a given width for every row."""

    def __init__(self, classes, width):
        self.classes = classes
        self.width = width

    def predict_batch(self, X):
        return np.zeros((X.shape[0], self.width))


def test_label_peak_memory_is_the_outputs_plus_two_chunks(monkeypatch):
    monkeypatch.setattr(neighborhood, "_LABEL_CHUNK", 1000)
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
    outputs = ns.bb_outputs.nbytes
    chunk = 1000 * 3 * 8
    assert outputs == 20 * chunk
    assert peak - base <= outputs + 2 * chunk, (peak - base - outputs) / chunk


@pytest.mark.parametrize("width", [2, 4])
def test_label_rejects_outputs_of_the_wrong_width(width):
    rng = np.random.default_rng(13)
    ns = NeighborhoodSet(samples=rng.normal(size=(3, 5, 2)), z=10, n_synth=4, seed=0)
    with pytest.raises(InputError, match="shape"):
        label(ns, _FixedWidthBox(("a", "b", "c"), width))


def test_cache_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    enc = numeric_enc(rng.normal(size=(7, 2)))
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=10, seed=3), bb)
    path = str(tmp_path / "ns.npz")
    save_cache(path, ns)
    loaded = load_cache(path)
    assert loaded is not None
    assert np.array_equal(loaded.samples, ns.samples)
    assert np.array_equal(loaded.bb_outputs, ns.bb_outputs)
    assert (loaded.z, loaded.n_synth, loaded.seed) == (10, 10, 3)


def test_cache_refuses_unlabeled_and_tolerates_garbage(tmp_path):
    rng = np.random.default_rng(4)
    enc = numeric_enc(rng.normal(size=(4, 2)))
    ns = build(enc, z=10, n_synth=5, seed=3)
    with pytest.raises(InputError):
        save_cache(str(tmp_path / "x.npz"), ns)
    assert load_cache(str(tmp_path / "missing.npz")) is None
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a zip")
    assert load_cache(str(bad)) is None
    bad.write_bytes(b"")
    assert load_cache(str(bad)) is None


def test_cache_rejects_truncated_and_malformed_files(tmp_path):
    rng = np.random.default_rng(5)
    enc = numeric_enc(rng.normal(size=(6, 2)))
    ns = label(build(enc, z=10, n_synth=40, seed=3), random_linear_bb(rng, enc))
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
    good = {
        "samples": np.zeros((6, 41, 2)),
        "bb_outputs": np.zeros((6, 41, 2)),
        "meta": np.array([10, 40, 3], dtype=np.int64),
    }

    def one_entry(value):
        out = np.zeros((6, 41, 2))
        out[2, 5, 1] = value
        return out

    for key, value in (
        ("samples", np.zeros((6, 41))),
        ("samples", np.zeros((6, 41, 2), dtype=np.int64)),
        ("bb_outputs", np.zeros((6, 40, 2))),
        ("meta", good["meta"][:2]),
        ("bb_outputs", None),
        ("samples", one_entry(np.nan)),
        ("samples", one_entry(-np.inf)),
        ("bb_outputs", one_entry(np.nan)),
        ("bb_outputs", one_entry(np.inf)),
    ):
        arrays = {k: v for k, v in {**good, key: value}.items() if v is not None}
        with open(malformed, "wb") as fh:
            np.savez(fh, **arrays)
        assert load_cache(str(malformed)) is None, key
    with open(malformed, "wb") as fh:
        np.savez(fh, **good)
    assert load_cache(str(malformed)) is not None


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
