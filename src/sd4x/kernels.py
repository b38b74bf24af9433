"""Numeric kernels for ridge solves and boundary scans.

All solvers work on Gram-form inputs.  For a subgroup with pooled
augmented design ``Xa`` (intercept column last) and stacked targets
``Y`` the inputs are ``G = Xa.T @ Xa``, ``C = Xa.T @ Y`` and
``yy = sum(Y * Y)``.  The ridge penalty ``lam`` is added to the first
``npen`` diagonal entries only, leaving the intercept unpenalized.

Every solve goes through one batched path, :func:`solve_stack`, which
works on a stack of systems at once: one ``np.linalg.cholesky`` call
factors and tests every matrix (a stack with a matrix Cholesky rejects
is factored again in halves; see :func:`_pivots_pass`), and a forward
and back substitution on that same factor solves every matrix that
passes.  numpy has no batched
triangular solve, so the substitution runs with the stack index
innermost: each of its ``2 d`` steps is one vectorised operation over
all matrices of the stack.  A matrix fails the test when Cholesky fails
or any pivot ``L[i, i]**2`` is at most ``1e-12`` times its largest
diagonal entry; a failed matrix falls back to an eigendecomposition
pseudoinverse, which returns the minimum-norm least-squares solution.
On consistent systems (always the case for Gram-form normal equations)
that solution still attains the minimal sum of squared errors.  Each
matrix of a stack is factored by the same LAPACK call as it would be on
its own, and every substitution step is elementwise within one matrix,
so batched and single results are bit-identical.
:func:`least_squares_sse` runs the same path unpenalized and without the
fallback, for the split search's lower bounds: a failed matrix gets -inf.
:func:`scan_sse`, the boundary scan of one or more sorted columns'
prefix sums, solves both children of every boundary with
:func:`solve_stack` and scores them with :func:`residual_sse`, the one
residual formula.

Every stack is built and solved in chunks of at most ``_STACK_BYTES``
bytes of ``(d, d)`` matrices, so the stack, its penalized copy, its
Cholesky factor and that factor's transposed copy stay bounded however
many systems a call solves.  An unpenalized stack, as every
least-squares stack is, is factored without a copy.  The penalized copy
is dropped once the stack is factored, and the factor once it is
transposed, so besides the stack at most two chunk-sized arrays are
alive at a time.  Since no step
mixes two matrices, the chunk size never changes a result.  The budget
is in bytes rather than in matrices so that small systems stay in one
chunk, where the per-call numpy overhead is paid once.

Every solve starts from the per-object pieces that
:func:`gram_pieces` forms from neighborhood rows and outputs.
Labeling runs on a pool of the run's threads through
:func:`over_ranges`, and the pipeline holds BLAS to one thread with
:func:`one_blas_thread`.  OpenBLAS runs a product of about 2**19
multiply-adds or more on all of its threads, whose helpers would then
spin against the pool's workers; on one thread, every product also has
the bits of a one-thread pass whichever worker makes it.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_EIG_CUTOFF = 1e-12
_PIVOT_CUTOFF = 1e-12
# Bytes of one stacked (k, d, d) Gram array; see the module docstring.
_STACK_BYTES = 1 << 21
# numpy's OpenBLAS thread-count functions, by symbol prefix and suffix:
# the scipy-openblas wheels' ILP64 build first, then plain OpenBLAS.
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


@functools.lru_cache(maxsize=None)
def _find_openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    They are looked up through numpy's own extension module, since a
    symbol lookup on a library also searches the libraries it links.
    None on any other BLAS, or if the lookup fails in any way.  The
    lookup runs once, when a scope first opens.
    """
    try:
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for prefix, suffix in _OPENBLAS_SYMBOLS:
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return get, put
    return None


class _OneBlasThread(contextlib.ContextDecorator):
    """See :func:`one_blas_thread`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        with self._lock:
            funcs = _find_openblas()
            if self._depth == 0 and funcs is not None:
                get, put = funcs
                self._saved = get()
                if self._saved != 1:
                    put(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._depth -= 1
            funcs = _find_openblas()
            if self._depth == 0 and funcs is not None and self._saved != 1:
                funcs[1](self._saved)
        return False


_ONE_BLAS_THREAD = _OneBlasThread()


def one_blas_thread() -> _OneBlasThread:
    """Scope that holds numpy's OpenBLAS to one thread.

    Use it as ``with one_blas_thread():`` or as the decorator
    ``@one_blas_thread()``.  The caller's thread count is read when the
    outermost scope opens and restored when it closes, also on an
    exception; scopes may nest and may be entered from several threads
    at once.  The count is process-wide, so any BLAS call made meanwhile
    runs on one thread.  On a BLAS other than OpenBLAS, or when its
    functions cannot be found, the scope does nothing.
    """
    return _ONE_BLAS_THREAD


def over_ranges(n: int, workers: int, work, step: int) -> None:
    """Call ``work(w, lo, hi)`` for ``workers`` contiguous ranges covering ``0..n-1``.

    The ranges are cut between blocks of ``step`` items: with ``c =
    ceil(n / step)`` blocks, range ``w`` is ``[step * (c * w // workers),
    step * (c * (w + 1) // workers))``, clipped to ``n``, so only the last
    block may be short.  With more than one worker each range runs on a
    thread of a pool while the caller waits, and an exception in any
    range is raised here; with one, ``work`` runs on the calling thread
    and no pool is started.
    """
    if workers <= 1:
        work(0, 0, n)
        return
    blocks = -(-n // step)
    bounds = [min(n, step * (blocks * w // workers)) for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, range(workers), bounds, bounds[1:]))


def gram_pieces(
    X: np.ndarray, Y: np.ndarray, G: np.ndarray, C: np.ndarray, yy: np.ndarray
) -> None:
    """Write the Gram pieces of neighborhoods X and outputs Y into G, C and yy.

    X is (k, S, m) and Y (k, S, p); G is (k, m + 1, m + 1), C is
    (k, m + 1, p) and yy is (k,).  With the augmented design [X_i, 1],
    ``G_i`` is its Gram matrix, ``C_i`` its product with Y_i and ``yy_i``
    the sum of squared outputs: the blocks X_i'X_i and X_i'Y_i are
    batched BLAS products, one per object, the intercept row and column
    hold the column sums, and the corner is S.  Every object's pieces
    are formed from its own rows alone, so they have the same bits
    whichever objects share the call.
    """
    S, m = X.shape[1], X.shape[2]
    Xt = X.transpose(0, 2, 1)
    np.matmul(Xt, X, out=G[:, :m, :m])
    sx = X.sum(axis=1)
    G[:, :m, m] = sx
    G[:, m, :m] = sx
    G[:, m, m] = S
    np.matmul(Xt, Y, out=C[:, :m])
    C[:, m] = Y.sum(axis=1)
    yy[:] = np.einsum("nsp,nsp->n", Y, Y)


def _pinv_solve(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(A)
    cut = _EIG_CUTOFF * max(np.max(np.abs(w)), 0.0)
    inv = np.where(np.abs(w) > cut, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (V * inv) @ (V.T @ C)


def _penalize(G: np.ndarray, lam: float, npen: int) -> np.ndarray:
    """``G`` with ``lam`` added to its first ``npen`` diagonal entries.

    A copy when there is a penalty to add; ``G`` itself otherwise, since
    neither ``np.linalg.cholesky`` nor ``np.linalg.eigh`` writes its input.
    """
    if lam == 0.0 or npen == 0:
        return G
    A = G.copy()
    idx = np.arange(npen)
    A[..., idx, idx] += lam
    return A


def _pivots_pass(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky-factor every matrix of the stack and test its pivots.

    Returns (ok, L): ``ok[k]`` says Cholesky succeeds on ``A[k]`` with
    every pivot above the cutoff, and ``L[k]`` is that factor where
    ``ok[k]`` holds and the identity elsewhere, so that a substitution
    over the whole stack stays finite.  numpy fails the whole stack when
    one matrix fails, so a failed stack is factored again in halves, and
    each half that fails in halves again: f failed matrices among k cost
    O(f log k) calls rather than k.  Each matrix is still factored by
    the same LAPACK call, so its factor keeps its bits.
    """
    ok = np.empty(A.shape[0], dtype=bool)
    return ok, _factor(A, ok, None)


def _factor(A: np.ndarray, ok: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Factors of the stack ``A`` for :func:`_pivots_pass`, into ``out`` or a new array.

    ``ok`` receives the stack's pivot test.  A stack that fails is
    factored in two halves written into the same output, so the output
    and at most one half's factor are held at a time.
    """
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if out is None:
            out = np.empty(A.shape)
        if A.shape[0] == 1:
            ok[0] = False
            out[0] = np.eye(A.shape[1])
        else:
            h = A.shape[0] // 2
            _factor(A[:h], ok[:h], out[:h])
            _factor(A[h:], ok[h:], out[h:])
        return out
    tol = _PIVOT_CUTOFF * np.maximum(np.diagonal(A, axis1=1, axis2=2).max(axis=1), 0.0)
    piv = np.diagonal(L, axis1=1, axis2=2)
    ok[:] = np.all(piv * piv > tol[:, None], axis=1)
    if not ok.all():
        L[~ok] = np.eye(A.shape[1])
    if out is None:
        return L
    out[:] = L
    return out


def _cholesky_solve(Lt: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve L[k] L[k].T B[k] = C[k] for every k of a stack.

    ``Lt`` holds the factors stack index innermost, ``Lt[i, j, k] =
    L[k, i, j]``, and the right-hand sides are copied to (d, p, k) the
    same way, so each step of the forward and back substitutions is one
    vectorised operation over every matrix.  Every operation is
    elementwise within one matrix, so a matrix gets the same bits
    whatever stack it is solved in.  Returns a (k, d, p) view of a fresh
    array; ``C`` is never written.
    """
    d = Lt.shape[0]
    W = C.transpose(1, 2, 0).copy()
    for i in range(d):
        W[i] /= Lt[i, i]
        W[i + 1 :] -= Lt[i + 1 :, i, None] * W[i]
    for i in range(d - 1, -1, -1):
        W[i] /= Lt[i, i]
        W[:i] -= Lt[i, :i, None] * W[i]
    return W.transpose(2, 0, 1)


def solve_stack(
    G: np.ndarray, C: np.ndarray, lam: float, npen: int
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (G[k] + lam * diag(mask)) B[k] = C[k] for every k of a stack.

    ``G`` is (k, d, d) and ``C`` is (k, d, p); mask is 1 on the first
    npen entries.  Returns (B, ok) where ``ok[k]`` says matrix k passed
    the pivot test and was solved from its Cholesky factor rather than
    by pseudoinverse.  The stack is penalized, factored and solved a
    chunk of at most ``_STACK_BYTES`` at a time; the results do not
    depend on the chunks.  ``G`` and ``C`` are never written.
    """
    return _solve(G, C, float(lam), int(npen), pinv=True)


def _solve(
    G: np.ndarray, C: np.ndarray, lam: float, npen: int, pinv: bool
) -> tuple[np.ndarray, np.ndarray]:
    k, d = G.shape[0], G.shape[1]
    step = max(1, _STACK_BYTES // (d * d * 8))
    if k <= step:
        return _solve_chunk(G, C, lam, npen, pinv)
    B = np.empty(C.shape)
    ok = np.empty(k, dtype=bool)
    for start in range(0, k, step):
        part = slice(start, start + step)
        B[part], ok[part] = _solve_chunk(G[part], C[part], lam, npen, pinv)
    return B, ok


def _solve_chunk(
    G: np.ndarray, C: np.ndarray, lam: float, npen: int, pinv: bool
) -> tuple[np.ndarray, np.ndarray]:
    ok, L = _pivots_pass(_penalize(G, lam, npen))
    Lt = np.ascontiguousarray(L.transpose(1, 2, 0))
    del L  # at most two chunk-sized arrays at a time; see the module docstring
    B = _cholesky_solve(Lt, C)
    if pinv:
        for k in np.flatnonzero(~ok):
            B[k] = _pinv_solve(_penalize(G[k], lam, npen), C[k])
    return B, ok


def solve_penalized(
    G: np.ndarray, C: np.ndarray, lam: float, npen: int
) -> tuple[np.ndarray, bool]:
    """Penalized normal-equation solve; returns (B, cholesky_succeeded).

    No code in the package calls this any more; the benchmark's tracer
    still wraps it by name, so it stays until the tracer reads counts.
    """
    B, ok = solve_stack(G[None], C[None], lam, npen)
    return B[0], bool(ok[0])


def residual_sse(G: np.ndarray, C: np.ndarray, yy: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Residual SSE of each solution ``B[k]`` of a stack, from Gram-form inputs.

    For rows with augmented design ``Xa`` and targets ``Y`` the SSE of
    ``Xa @ B`` is ``yy + sum(B * (G @ B - 2 C))``.  That sum cancels
    against ``yy``, so its rounding noise is of order 1e-16 * yy and of
    either sign; each result is clamped at 0, the least possible SSE.
    ``G`` is (k, d, d), ``C`` and ``B`` are (k, d, p), ``yy`` is (k,).
    """
    R = B * (G @ B - 2.0 * C)
    return np.maximum(yy + np.sum(R.reshape(R.shape[0], -1), axis=1), 0.0)


def least_squares_sse(G: np.ndarray, C: np.ndarray, yy: np.ndarray) -> np.ndarray:
    """Unpenalized least-squares SSE of every system of a stack, or -inf.

    Each matrix is factored, tested and solved as by :func:`solve_stack`
    with ``lam = 0``, but a matrix that fails the pivot test gets -inf
    rather than a pseudoinverse solve: the result is used as a lower
    bound, and -inf bounds nothing.  ``G`` is (k, d, d), ``C`` is
    (k, d, p) and ``yy`` is (k,).
    """
    B, ok = _solve(G, C, 0.0, 0, pinv=False)
    return np.where(ok, residual_sse(G, C, yy, B), -np.inf)


def scan_sse(
    Gpre: np.ndarray,
    Cpre: np.ndarray,
    yypre: np.ndarray,
    Gtot: np.ndarray,
    Ctot: np.ndarray,
    yytot: np.ndarray,
    bounds: np.ndarray,
    lam: float,
    npen: int,
    totals: np.ndarray,
) -> np.ndarray:
    """Child-SSE totals for candidate boundaries of sorted columns.

    Boundary t splits rows [0, t) (left, the prefix sums at t - 1) from
    rows [t, n) (right, the totals minus those prefix sums).  The
    boundaries may be of several columns: ``Gpre`` may hold rows copied
    from each column's prefix sums, and the totals of boundary i are
    ``Gtot[totals[i]]``, ``Ctot[totals[i]]`` and ``yytot[totals[i]]``.
    With the totals taken as the last row of the same prefix sums, an
    entry that is zero in every row of the right child, such as a one-hot
    level absent from it, comes out as an exact zero.  Both children of
    each boundary are stacked and solved in one batched call per chunk of
    boundaries; a chunk's stack of Gram matrices takes at most
    ``_STACK_BYTES``, and the totals are bit-identical for any chunking
    and any mix of columns.
    """
    t = np.asarray(bounds, dtype=np.intp) - 1
    nb = t.shape[0]
    d = Gpre.shape[1]
    step = max(1, min(nb, _STACK_BYTES // (2 * d * d * 8)))
    G = np.empty((2 * step,) + Gpre.shape[1:])
    C = np.empty((2 * step,) + Cpre.shape[1:])
    out = np.empty(nb)
    for start in range(0, nb, step):
        tc, own = t[start : start + step], totals[start : start + step]
        k = tc.shape[0]
        Gc, Cc = G[: 2 * k], C[: 2 * k]
        np.take(Gpre, tc, axis=0, out=Gc[:k])
        np.take(Cpre, tc, axis=0, out=Cc[:k])
        np.take(Gtot, own, axis=0, out=Gc[k:])
        np.take(Ctot, own, axis=0, out=Cc[k:])
        np.subtract(Gc[k:], Gc[:k], out=Gc[k:])
        np.subtract(Cc[k:], Cc[:k], out=Cc[k:])
        yyl = yypre[tc]
        B, _ = solve_stack(Gc, Cc, lam, npen)
        sse = residual_sse(Gc, Cc, np.concatenate([yyl, yytot[own] - yyl]), B)
        out[start : start + k] = sse[:k] + sse[k:]
    return out
