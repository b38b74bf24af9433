from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sd4x import kernels

from conftest import numeric_enc, ridge_sse_stack


def oracle_ridge(X, Y, lam, fit_intercept=True):
    """Independent dense solver: explicit normal equations, intercept unpenalized."""
    n, m = X.shape
    if fit_intercept:
        A = np.hstack([X, np.ones((n, 1))])
        penalty = np.diag([1.0] * m + [0.0])
    else:
        A = X
        penalty = np.eye(m)
    M = A.T @ A + lam * penalty
    B = np.linalg.solve(M, A.T @ Y)
    return B


def ridge_sse(G, C, yy, lam, npen) -> float:
    """Residual SSE of one penalized fit, from Gram-form inputs."""
    return float(ridge_sse_stack(G[None], C[None], np.asarray([yy]), lam, npen)[0])


def make_problem(rng, lam):
    n = int(rng.integers(20, 120))
    m = int(rng.integers(2, 12))
    p = int(rng.integers(1, 4))
    X = rng.normal(size=(n, m))
    Y = rng.normal(size=(n, p))
    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ A
    C = A.T @ Y
    yy = float(np.sum(Y * Y))
    return X, Y, A, G, C, yy, m


def test_solve_penalized_matches_direct_inverse():
    rng = np.random.default_rng(42)
    for trial in range(30):
        lam = [0.0, 0.1, 1.0, 10.0][trial % 4]
        X, Y, A, G, C, yy, m = make_problem(rng, lam)
        B, chol_ok = kernels.solve_penalized(G, C, lam, m)
        expected = oracle_ridge(X, Y, lam, fit_intercept=True)
        assert chol_ok
        assert np.allclose(B, expected, rtol=1e-8, atol=1e-10)


def test_ridge_sse_matches_residual_sum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        X, Y, A, G, C, yy, m = make_problem(rng, 0.5)
        B, _ = kernels.solve_penalized(G, C, 0.5, m)
        sse = ridge_sse(G, C, yy, 0.5, m)
        direct = float(np.sum((A @ B - Y) ** 2))
        assert sse == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_min_norm_fallback_on_rank_deficiency():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    X = np.hstack([X, X[:, :1]])
    Y = rng.normal(size=(30, 2))
    A = np.hstack([X, np.ones((30, 1))])
    G = A.T @ A
    C = A.T @ Y
    B, chol_ok = kernels.solve_penalized(G, C, 0.0, X.shape[1])
    assert not chol_ok
    sse = ridge_sse(G, C, float(np.sum(Y * Y)), 0.0, X.shape[1])
    best = float(np.sum((A @ np.linalg.pinv(A) @ Y - Y) ** 2))
    assert sse == pytest.approx(best, rel=1e-8, abs=1e-10)
    assert np.allclose(B, np.linalg.pinv(A) @ Y, rtol=1e-7, atol=1e-9)


def test_scan_sse_equals_two_separate_fits():
    rng = np.random.default_rng(11)
    n, m, p = 24, 3, 2
    X = rng.normal(size=(n, m))
    Y = rng.normal(size=(n, p))
    A = np.hstack([X, np.ones((n, 1))])
    d = m + 1
    G = np.einsum("ni,nj->nij", A, A)
    C = np.einsum("ni,nj->nij", A, Y)
    yy = np.sum(Y * Y, axis=1)
    Gpre, Cpre, yypre = np.cumsum(G, 0), np.cumsum(C, 0), np.cumsum(yy)
    bounds = np.array([5, 12, 19], dtype=np.int64)
    for lam in (0.0, 1.0):
        got = kernels.scan_sse(
            Gpre, Cpre, yypre, Gpre, Cpre, yypre, bounds, lam, m, np.full(bounds.size, n - 1)
        )
        for bi, t in enumerate(bounds):
            parts = []
            for rows in (slice(0, t), slice(t, n)):
                Ar, Yr = A[rows], Y[rows]
                Gr, Cr = Ar.T @ Ar, Ar.T @ Yr
                B, _ = kernels.solve_penalized(Gr, Cr, lam, m)
                parts.append(float(np.sum((Ar @ B - Yr) ** 2)))
            assert got[bi] == pytest.approx(sum(parts), rel=1e-8, abs=1e-9)


def test_backend_selection_and_force():
    assert kernels.backend() == "numpy"


@pytest.mark.parametrize("seed", range(8))
def test_one_hot_plus_intercept_at_lambda_zero_takes_pinv_path(seed):
    # A one-hot block plus the intercept column is singular in exact
    # arithmetic.  For some of these seeds Cholesky still factors it on
    # rounding noise, and a solve on that factorization raises.
    rng = np.random.default_rng(seed)
    a = (rng.random(100) < 0.4).astype(float)
    X = np.column_stack([a, 1.0 - a, rng.normal(size=100)])
    Y = rng.random(size=(100, 3))
    A = np.hstack([X, np.ones((100, 1))])
    G, C = A.T @ A, A.T @ Y
    B, chol_ok = kernels.solve_penalized(G, C, 0.0, X.shape[1])
    assert not chol_ok
    assert np.allclose(B, np.linalg.pinv(A) @ Y, rtol=1e-7, atol=1e-9)


def test_tiny_pivot_fails_the_relative_pivot_test():
    # Cholesky succeeds (every pivot is positive) but one pivot, 2**-46,
    # is far below 1e-12 of the largest diagonal entry.  The dyadic
    # entries keep L @ L.T exact.
    L = np.array(
        [[2.0, 0, 0, 0], [1.0, 1.0, 0, 0], [1.0, 1.0, 2.0**-23, 0], [1.0, 0, 1.0, 1.0]]
    )
    G = np.stack([L @ L.T, np.eye(4) * 3.0])
    np.linalg.cholesky(G)
    C = np.ones((2, 4, 2))
    B, ok = kernels.solve_stack(G, C, 0.0, 3)
    assert ok.tolist() == [False, True]
    alone, ok_alone = kernels.solve_stack(G[1:], C[1:], 0.0, 3)
    assert ok_alone.tolist() == [True]
    assert np.array_equal(B[1], alone[0])
    np.testing.assert_allclose(B[1], np.linalg.solve(G[1], C[1]), rtol=1e-15, atol=0)


def _spd_stack(rng, k, d, p):
    M = rng.normal(size=(k, d, 2 * d))
    return M @ M.transpose(0, 2, 1), rng.normal(size=(k, d, p))


def test_least_squares_sse_is_the_unpenalized_sse_or_minus_inf():
    # Where the pivot test passes, the same bits as the lam = 0 ridge SSE;
    # a singular matrix gets -inf, not a pseudoinverse solve.
    rng = np.random.default_rng(77)
    X = rng.normal(size=(6, 40, 4))
    X[2, :, 3] = X[2, :, 0] + X[2, :, 1]  # rank 3
    Y = rng.normal(size=(6, 40, 2))
    G, C = X.transpose(0, 2, 1) @ X, X.transpose(0, 2, 1) @ Y
    yy = np.einsum("kij,kij->k", Y, Y)
    got = kernels.least_squares_sse(G, C, yy)
    ridge = ridge_sse_stack(G, C, yy, 0.0, 3)
    solved = np.arange(6) != 2
    assert np.array_equal(got[solved], ridge[solved])
    assert got[2] == -np.inf
    for k in np.flatnonzero(solved):
        W = np.linalg.lstsq(X[k], Y[k], rcond=None)[0]
        assert got[k] == pytest.approx(np.sum((X[k] @ W - Y[k]) ** 2), rel=1e-10)


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 9, 13, 36])
def test_solve_stack_agrees_with_per_matrix_lu_solves(d, p, lam):
    rng = np.random.default_rng(1000 * d + 10 * p + int(lam))
    G, C = _spd_stack(rng, 7, d, p)
    npen = d - 1
    B, ok = kernels.solve_stack(G, C, lam, npen)
    assert ok.all()
    pen = np.diag([lam] * npen + [0.0])
    for k in range(G.shape[0]):
        expected = np.linalg.solve(G[k] + pen, C[k])
        np.testing.assert_allclose(B[k], expected, rtol=1e-10, atol=0)
        alone, _ = kernels.solve_stack(G[k : k + 1], C[k : k + 1], lam, npen)
        assert np.array_equal(alone[0], B[k])


@pytest.mark.parametrize("k", [1, 2, 300])
def test_solve_stack_never_writes_into_its_inputs(k):
    # The last matrix is singular at lambda = 0, so both the substitution
    # and the pseudoinverse fallback run.  At k = 1 a transposed view of
    # C is already contiguous, so a solve that skipped the copy would
    # write straight into C.
    rng = np.random.default_rng(k)
    G, C = _spd_stack(rng, k, 5, 3)
    G[-1, :, 0] = G[-1, 0, :] = 0.0
    G0, C0 = G.copy(), C.copy()
    for lam in (0.0, 1.0):
        B, ok = kernels.solve_stack(G, C, lam, 4)
        assert ok[-1] == (lam > 0.0)
        assert np.array_equal(G, G0) and np.array_equal(C, C0)
    ridge_sse(G[0], C[0], 1.0, 0.0, 4)
    kernels.solve_penalized(G[-1], C[-1], 0.0, 4)
    # An unpenalized stack is factored without a copy.
    kernels.least_squares_sse(G, C, np.ones(k))
    assert np.array_equal(G, G0) and np.array_equal(C, C0)


@pytest.mark.parametrize("bad", [[0], [37], [63], [5, 6, 40]])
def test_a_failed_stack_is_refactored_in_halves(monkeypatch, bad):
    # 64 matrices, some with a zero row and column, which Cholesky
    # rejects.  Bisecting costs 1 + 2 log2(64) = 13 calls per failed
    # matrix at most, not 65, and each matrix gets the ok flag and the
    # factor bits it gets alone.
    rng = np.random.default_rng(len(bad) * 100 + bad[0])
    A, _ = _spd_stack(rng, 64, 6, 1)
    A[bad, 2, :] = A[bad, :, 2] = 0.0
    want = [kernels._pivots_pass(A[k : k + 1]) for k in range(64)]
    calls = []
    cholesky = np.linalg.cholesky

    def counted(M):
        calls.append(M.shape[0])
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    ok, L = kernels._pivots_pass(A)
    assert len(calls) <= 1 + len(bad) * 2 * 6, calls
    assert ok.tolist() == [k not in bad for k in range(64)]
    assert np.array_equal(ok, np.concatenate([w[0] for w in want]))
    assert np.array_equal(L, np.concatenate([w[1] for w in want]))


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("first_scale", [1.0, 1e-7, 0.0])
def test_scan_sse_is_bit_identical_to_per_boundary_solves(lam, first_scale):
    # Per-object Gram pieces of 40 objects with 6 rows each.  The first
    # 10 objects scale column 0 by first_scale: with 1e-7 the short left
    # children factor but fail the pivot test, with 0.0 the stacked
    # Cholesky raises and the test runs one matrix at a time.
    rng = np.random.default_rng(17)
    n, S, m, p = 40, 6, 3, 2
    X = rng.normal(size=(n, S, m))
    X[:10, :, 0] *= first_scale
    Y = rng.random(size=(n, S, p))
    Xa = np.concatenate([X, np.ones((n, S, 1))], axis=2)
    G = np.einsum("nsd,nse->nde", Xa, Xa)
    C = np.einsum("nsd,nsp->ndp", Xa, Y)
    yy = np.einsum("nsp,nsp->n", Y, Y)
    Gpre, Cpre, yypre = np.cumsum(G, 0), np.cumsum(C, 0), np.cumsum(yy)
    Gtot, Ctot, yytot = Gpre[-1], Cpre[-1], yypre[-1]
    bounds = np.arange(1, n, dtype=np.int64)
    totals = np.full(bounds.size, n - 1)
    got = kernels.scan_sse(Gpre, Cpre, yypre, Gpre, Cpre, yypre, bounds, lam, m, totals)
    expected = np.empty(bounds.size)
    flags = []
    for i, t in enumerate(bounds):
        left = ridge_sse(Gpre[t - 1], Cpre[t - 1], yypre[t - 1], lam, m)
        right = ridge_sse(
            Gtot - Gpre[t - 1], Ctot - Cpre[t - 1], yytot - yypre[t - 1], lam, m
        )
        expected[i] = left + right
        flags.append(kernels.solve_penalized(Gpre[t - 1], Cpre[t - 1], lam, m)[1])
    assert np.array_equal(got, expected)
    if lam == 0.0 and first_scale != 1.0:
        assert not all(flags) and any(flags)


def _prefix_problem(first_scale, n=40, S=6, m=3, p=2, seed=17):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, S, m))
    X[:10, :, 0] *= first_scale
    Y = rng.random(size=(n, S, p))
    Xa = np.concatenate([X, np.ones((n, S, 1))], axis=2)
    G = np.einsum("nsd,nse->nde", Xa, Xa)
    C = np.einsum("nsd,nsp->ndp", Xa, Y)
    yy = np.einsum("nsp,nsp->n", Y, Y)
    return G, C, yy


@pytest.mark.parametrize("per_chunk", [1, 3, None], ids=["1", "3", "default"])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("first_scale", [1.0, 1e-7, 0.0])
def test_chunked_scan_sse_equals_per_boundary_solves(monkeypatch, per_chunk, lam, first_scale):
    # With 1 or 3 boundaries per chunk some chunks hold only children
    # that fail the pivot test (1e-7) or make the stacked Cholesky raise
    # (0.0), while others pass; the totals must not depend on that.
    G, C, yy = _prefix_problem(first_scale)
    m = G.shape[1] - 1
    Gpre, Cpre, yypre = np.cumsum(G, 0), np.cumsum(C, 0), np.cumsum(yy)
    Gtot, Ctot, yytot = Gpre[-1], Cpre[-1], yypre[-1]
    bounds = np.arange(1, G.shape[0], dtype=np.int64)
    expected = np.array(
        [
            ridge_sse(Gpre[t - 1], Cpre[t - 1], yypre[t - 1], lam, m)
            + ridge_sse(
                Gtot - Gpre[t - 1], Ctot - Cpre[t - 1], yytot - yypre[t - 1], lam, m
            )
            for t in bounds
        ]
    )
    if per_chunk is not None:
        d = G.shape[1]
        monkeypatch.setattr(kernels, "_STACK_BYTES", per_chunk * 2 * d * d * 8)
    totals = np.full(bounds.size, G.shape[0] - 1)
    got = kernels.scan_sse(Gpre, Cpre, yypre, Gpre, Cpre, yypre, bounds, lam, m, totals)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("first_scale", [1.0, 1e-7, 0.0])
def test_chunked_solve_stack_equals_unchunked(monkeypatch, first_scale):
    G, C, _ = _prefix_problem(first_scale)
    G = np.cumsum(G, 0)  # the short prefixes are singular or nearly so
    C = np.cumsum(C, 0)
    m = G.shape[1] - 1
    B, ok = kernels.solve_stack(G, C, 0.0, m)
    assert not ok.all() or first_scale == 1.0
    d = G.shape[1]
    for per_chunk in (1, 3, 7):
        monkeypatch.setattr(kernels, "_STACK_BYTES", per_chunk * d * d * 8)
        Bc, okc = kernels.solve_stack(G, C, 0.0, m)
        assert np.array_equal(okc, ok)
        assert np.array_equal(Bc, B)


def test_scan_sse_peak_memory_stays_within_the_stack_budget():
    # A root scan at the neighborhood-mixed sizes: 550 objects, d = 36.
    G, C, yy = _prefix_problem(1.0, n=550, S=4, m=35, p=3, seed=5)
    m = G.shape[1] - 1
    Gpre, Cpre, yypre = np.cumsum(G, 0), np.cumsum(C, 0), np.cumsum(yy)
    del G, C
    bounds = np.arange(2, 549, dtype=np.int64)
    totals = np.full(bounds.size, 549)
    args = (Gpre, Cpre, yypre, Gpre, Cpre, yypre, bounds, 1.0, m, totals)
    kernels.scan_sse(*args)  # warm up lazy imports
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        kernels.scan_sse(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 4 * kernels._STACK_BYTES, (peak - base) / 2**20


def test_solve_stack_peak_memory_stays_within_the_stack_budget():
    # 1000 matrices with d = 36 take five chunks of the stack budget.
    rng = np.random.default_rng(9)
    G, C = _spd_stack(rng, 1000, 36, 3)
    kernels.solve_stack(G[:2], C[:2], 1.0, 35)  # warm up lazy imports
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        B, ok = kernels.solve_stack(G, C, 1.0, 35)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok.all()
    extra = peak - base - B.nbytes - ok.nbytes
    assert extra <= 4 * kernels._STACK_BYTES, extra / 2**20


# ---------------------------------------------------------------------------
# one BLAS thread inside the pipeline
# ---------------------------------------------------------------------------


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set), set to 2 threads for the test and restored after."""
    funcs = kernels._find_openblas()
    if funcs is None:
        pytest.skip("numpy does not use OpenBLAS")
    get, put = funcs
    saved = get()
    put(2)
    yield get
    put(saved)


def test_label_calls_the_black_box_on_one_blas_thread(blas_threads):
    from sd4x.neighborhood import build, label

    seen = []

    class Probe:
        classes = ("a", "b")

        def predict_batch(self, rows):
            seen.append(blas_threads())
            return np.full((rows.shape[0], 2), 0.5)

    ns = build(numeric_enc(np.arange(6.0).reshape(3, 2)), z=1, n_synth=3, seed=0)
    label(ns, Probe())
    assert seen == [1]
    assert blas_threads() == 2


def test_nested_scopes_restore_the_count_once(blas_threads):
    with kernels.one_blas_thread():
        with kernels.one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2
    assert kernels._ONE_BLAS_THREAD._depth == 0


def test_a_scope_restores_the_count_on_an_exception(blas_threads):
    with pytest.raises(ValueError, match="inside"):
        with kernels.one_blas_thread():
            with kernels.one_blas_thread():
                assert blas_threads() == 1
                raise ValueError("inside")
    assert blas_threads() == 2
    assert kernels._ONE_BLAS_THREAD._depth == 0


def test_concurrent_scopes_hold_one_thread_until_the_last_exits(blas_threads):
    import threading

    inside = threading.Barrier(2)
    first_out = threading.Event()
    seen = {}

    def worker(name):
        with kernels.one_blas_thread():
            inside.wait(timeout=10)
            if name == "first":
                seen[name] = blas_threads()
            else:
                first_out.wait(timeout=10)
                seen[name] = blas_threads()  # the first scope has closed
        if name == "first":
            first_out.set()

    threads = [threading.Thread(target=worker, args=(name,)) for name in ("first", "second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert seen == {"first": 1, "second": 1}
    assert blas_threads() == 2
    assert kernels._ONE_BLAS_THREAD._depth == 0


def test_a_failed_lookup_finds_nothing(monkeypatch):
    def refuse(path):
        raise OSError("no library")

    monkeypatch.setattr(kernels.ctypes, "CDLL", refuse)
    assert kernels._find_openblas.__wrapped__() is None


def test_a_scope_without_openblas_changes_nothing(blas_threads, monkeypatch):
    monkeypatch.setattr(kernels, "_find_openblas", lambda: None)
    scope = kernels._OneBlasThread()
    with scope:
        with scope:
            assert blas_threads() == 2
    assert blas_threads() == 2
    assert scope._depth == 0
