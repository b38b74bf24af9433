"""Neighborhood generation, discretization, and black-box labeling.

Each explained object gets a neighborhood of ``1 + n_synth`` rows: the
object itself first, then synthetic points drawn from a Gaussian
centered on the object with covariance ``Sigma / z``, where ``Sigma`` is
the sample covariance of the encoded explained objects.  Draws use one
independent, object-indexed substream of the base seed.  Synthetic rows
are snapped back onto valid encodings before labeling: booleans
threshold at 0.5, ordinal codes round half-up and clamp to the level
range, and each one-hot block activates the category whose raw value is
closest to 1.

:func:`build` only plans: it checks its inputs and factors the
covariance.  :func:`label` streams the neighborhoods in chunks of whole
objects: for each chunk it draws the rows, makes one black-box call,
forms the chunk's Gram pieces (:func:`kernels.gram_pieces`) and keeps
only those and the objects' own outputs, so no run holds every
neighborhood row.  With more threads each worker of a pool
(:func:`kernels.over_ranges`) streams a contiguous range of chunks
through buffers of its own.  A set's ``samples``, every row at once,
are drawn only when read.

Rows are drawn ``len(g)`` objects at a time into a reused buffer ``g``
of normals: each object's from its own substream, then one stacked
product applies the Cholesky factor and the rows are discretized in
place.  Everything runs with BLAS held to one thread
(:func:`kernels.one_blas_thread`), so every worker's products run on the
worker's own thread.  The stacked product makes the same per-object
BLAS call as a product over one object, and discretization works row by
row, so the rows and their pieces are bit-identical for any thread
count and chunk size.  A black box that ``label`` calls also sees one
BLAS thread.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
import zipfile
from dataclasses import dataclass

import numpy as np

from . import kernels
from .blackbox import BlackBox
from .dataset import AttributeKind, EncodedMatrix, attribute_slices
from .errors import InputError

# Rows per black-box call, rounded down to whole objects (at least one).
_LABEL_CHUNK = 65536
# Rows drawn per use of the normals buffer, across all workers.
_BUILD_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class _Plan:
    """What drawing a built set's rows takes: the objects, the factor, the threads."""

    enc: EncodedMatrix
    L: np.ndarray  # Cholesky factor of Sigma / z
    threads: int


class NeighborhoodSet:
    """Neighborhoods of the explained objects and what later stages read of them.

    Later stages read only the per-object Gram pieces (``grams``, see the
    whitebox module) and each object's own outputs (``object_outputs``,
    which the top-k F1 check reads).  :func:`label` forms both from a
    set that :func:`build` planned, without keeping its rows, and
    :func:`load_cache` reads both back from a file.

    ``samples``, the (n_objects, 1 + n_synth, m') discretized rows, is
    held only by a set made with explicit rows; a built set draws every
    row when ``samples`` is first read and keeps them, and :func:`label`
    then labels those.  A set made with explicit rows and their outputs
    (``bb_outputs``, (n_objects, 1 + n_synth, p)) gets its pieces from
    :func:`whitebox.neighborhood_grams`; ``label`` never stores
    ``bb_outputs``.
    """

    def __init__(
        self,
        samples: np.ndarray | None,
        z: int,
        n_synth: int,
        seed: int,
        bb_outputs: np.ndarray | None = None,
        object_outputs: np.ndarray | None = None,
        grams: tuple | None = None,
        plan: _Plan | None = None,
    ) -> None:
        self._samples = samples
        self.z = z
        self.n_synth = n_synth
        self.seed = seed
        self.bb_outputs = bb_outputs
        if object_outputs is None and bb_outputs is not None:
            object_outputs = bb_outputs[:, 0]
        self.object_outputs = object_outputs  # (n_objects, p); None until labeled
        self.grams = grams  # (G, C, yy), see the whitebox module
        self._plan = plan

    @property
    def samples(self) -> np.ndarray | None:
        """Every neighborhood row, drawn on first read for a built set; None when cached."""
        if self._samples is None and self._plan is not None:
            self._samples = _draw_all(self._plan, self.n_synth, self.seed)
        return self._samples

    @property
    def n_objects(self) -> int:
        """Objects in the set, counted without drawing rows."""
        if self._plan is not None:
            return self._plan.enc.n
        held = self._samples if self.object_outputs is None else self.object_outputs
        return int(held.shape[0])

    @property
    def size(self) -> int:
        """Rows per neighborhood: the object itself and its synthetic points."""
        return 1 + self.n_synth


def estimate_covariance(X: np.ndarray) -> np.ndarray:
    """Symmetrized sample covariance (ddof=1) of the encoded objects."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        return np.zeros((X.shape[1], X.shape[1]))
    C = np.cov(X, rowvar=False, ddof=1)
    C = np.atleast_2d(C)
    return (C + C.T) / 2.0


def scaled_cholesky(sigma: np.ndarray, z: int) -> np.ndarray:
    """Cholesky factor of sigma / z, adding diagonal jitter when needed."""
    if z < 1:
        raise InputError(f"z must be a positive integer, got {z}")
    A = np.asarray(sigma, dtype=np.float64) / float(z)
    m = A.shape[0]
    trace = float(np.trace(A))
    eps = 1e-9 * (trace / m if trace > 0.0 else 1.0)
    for _ in range(40):
        try:
            return np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            A = A + eps * np.eye(m)
            eps *= 10.0
    raise InputError("covariance matrix cannot be made positive definite")


def discretize(samples: np.ndarray, enc: EncodedMatrix) -> np.ndarray:
    """Snap raw Gaussian rows onto valid encoded rows, in place.

    ``samples`` is a 2-D float64 array; it is modified and returned.
    """
    for attr, sl in zip(enc.attributes, attribute_slices(enc.attributes)):
        block = samples[:, sl]
        if attr.kind is AttributeKind.BOOLEAN:
            block[:] = np.where(block >= 0.5, 1.0, 0.0)
        elif attr.kind is AttributeKind.ORDINAL:
            top = float(len(attr.categories) - 1)
            block[:] = np.clip(np.floor(block + 0.5), 0.0, top)
        elif attr.kind is AttributeKind.NOMINAL:
            winner = np.argmin(np.abs(block - 1.0), axis=1)
            block[:] = 0.0
            block[np.arange(block.shape[0]), winner] = 1.0
    return samples


@kernels.one_blas_thread()
def build(
    enc: EncodedMatrix,
    z: int = 10,
    n_synth: int = 250,
    seed: int = 0,
    threads: int = 1,
) -> NeighborhoodSet:
    """Plan discretized neighborhoods for every encoded object.

    This checks the inputs and factors the covariance; it draws no rows.
    :func:`label` draws, labels and forms the pieces on at most
    ``threads`` workers, and reading ``samples`` draws every row on as
    many.  The rows do not depend on ``threads``.
    """
    if n_synth < 0:
        raise InputError(f"n_synth must be >= 0, got {n_synth}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    L = scaled_cholesky(estimate_covariance(enc.values), z)
    return NeighborhoodSet(None, z, n_synth, seed, plan=_Plan(enc, L, threads))


@kernels.one_blas_thread()
def _draw_all(plan: _Plan, n_synth: int, seed: int) -> np.ndarray:
    """Every row of a planned set, in chunks of about ``_BUILD_CHUNK_ROWS`` rows.

    A pool of at most ``plan.threads`` workers, and no more than the
    chunks a one-thread draw walks (so no more than there are objects),
    draws contiguous ranges of objects, in chunks of
    ``_BUILD_CHUNK_ROWS // workers`` rows.
    """
    enc = plan.enc
    n, m = enc.n, enc.m
    size = 1 + n_synth
    samples = np.empty((n, size, m))
    workers = min(plan.threads, max(1, -(-n // max(1, _BUILD_CHUNK_ROWS // size))))
    buffers = _normals_buffers(-(-n // workers), n_synth, m, workers)

    def work(w: int, lo: int, hi: int) -> None:
        _build_range(samples[lo:hi], enc, plan.L, seed, lo, hi, buffers[w])

    kernels.over_ranges(n, workers, work)
    return samples


def _normals_buffers(objects: int, n_synth: int, m: int, workers: int) -> list:
    """One normals buffer per worker, for at most ``objects`` objects each.

    Each holds ``_BUILD_CHUNK_ROWS // workers`` rows' worth of objects,
    and at least one.  They are allocated by the calling thread rather
    than by the workers, whose allocations would each grow a malloc
    arena of their own.
    """
    step = max(1, _BUILD_CHUNK_ROWS // workers // (1 + n_synth))
    return [np.empty((min(step, objects), n_synth, m)) for _ in range(workers)]


def _build_range(out, enc, L, seed, lo, hi, g) -> None:
    """Draw the rows of objects ``lo:hi`` into ``out``, ``len(g)`` objects at a time.

    ``out`` is (hi - lo, 1 + n_synth, m); its first row per object is
    the object itself.  Each object's normals come from its own
    substream of ``seed``.
    """
    m = out.shape[2]
    out[:, 0] = enc.values[lo:hi]
    for start in range(lo, hi, max(1, len(g))):
        stop = min(start + len(g), hi)
        for k, i in enumerate(range(start, stop)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            rng.standard_normal(out=g[k])
        rows = out[start - lo : stop - lo]
        synth = rows[:, 1:]
        np.matmul(g[: stop - start], L.T, out=synth)
        synth += enc.values[start:stop, None, :]
        discretize(rows.reshape(-1, m), enc)


@kernels.one_blas_thread()
def label(ns: NeighborhoodSet, bb: BlackBox) -> NeighborhoodSet:
    """Label every neighborhood row and form the per-object Gram pieces.

    The objects are streamed in chunks of ``_LABEL_CHUNK // (1 +
    n_synth)`` whole objects, and at least one: each chunk's rows are
    drawn (or sliced from the rows ``ns`` holds), go to the black box in
    one call, and give the chunk's Gram pieces and object outputs, after
    which its rows and outputs are dropped.  So a labeled set holds only
    ``grams`` and ``object_outputs``, and the chunk size sets the number
    of external black-box processes.  A built set with more than one
    chunk streams on a pool of at most its ``threads`` workers, each over
    a contiguous range of chunks with row buffers of its own; the
    black-box calls are made under one lock, so they are never
    concurrent, but their order across workers may vary.  Rows, outputs
    and pieces do not depend on the workers.  A chunk whose outputs are
    not one probability per class and row is bad input.
    """
    plan, held = ns._plan, ns._samples
    n, size, p = ns.n_objects, ns.size, len(bb.classes)
    m = held.shape[2] if held is not None else plan.enc.m
    per_call = max(1, _LABEL_CHUNK // size)
    threads = plan.threads if plan is not None else 1
    workers = max(1, min(threads, -(-n // per_call)))
    G = np.empty((n, m + 1, m + 1))
    C = np.empty((n, m + 1, p))
    yy = np.empty(n)
    outputs = np.empty((n, p))
    if held is None:
        # Allocated here rather than in the workers; see _normals_buffers.
        rows = [np.empty((min(per_call, n), size, m)) for _ in range(workers)]
        normals = _normals_buffers(min(per_call, n), ns.n_synth, m, workers)
    lock = threading.Lock()

    def work(w: int, lo: int, hi: int) -> None:
        for start in range(lo, hi, per_call):
            stop = min(start + per_call, hi)
            if held is None:
                X = rows[w][: stop - start]
                _build_range(X, plan.enc, plan.L, ns.seed, start, stop, normals[w])
                if stop == hi:
                    normals[w] = None  # drawn the worker's last chunk: free it before the call
            else:
                X = held[start:stop]
            with lock:
                Y = bb.predict_batch(X.reshape(-1, m))
            if Y.shape != ((stop - start) * size, p):
                raise InputError(
                    f"black box returned outputs of shape {Y.shape} "
                    f"for {(stop - start) * size} rows and {p} classes"
                )
            Y = Y.reshape(stop - start, size, p)
            outputs[start:stop] = Y[:, 0]
            kernels.gram_pieces(X, Y, G[start:stop], C[start:stop], yy[start:stop])
            del Y  # free this chunk's outputs before the next chunk is drawn

    kernels.over_ranges(n, workers, work, step=per_call)
    ns.bb_outputs = None
    ns.object_outputs = outputs
    ns.grams = (G, C, yy)
    return ns


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cache_key(data_hash: str, seed: int, z: int, n_synth: int, bb_tag: str) -> str:
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {
                "data": data_hash,
                "seed": seed,
                "z": z,
                "n_synth": n_synth,
                "bb": bb_tag,
            },
            sort_keys=True,
        ).encode("utf-8")
    )
    return h.hexdigest()


def save_cache(path: str, ns: NeighborhoodSet) -> None:
    """Write a labeled set's Gram pieces and object outputs to ``path``.

    The file is an uncompressed ``.npz`` of ``G``, ``C``, ``yy`` (the
    pieces, float64), ``outputs`` (the object rows' outputs) and ``meta``
    (z, n_synth, seed); it holds no neighborhood rows.  It is written
    under a temporary name in the same directory and then renamed into
    place, so ``path`` never holds a partial write.
    """
    if ns.object_outputs is None:
        raise InputError("refusing to cache unlabeled neighborhoods")
    if ns.grams is None:
        raise InputError("refusing to cache neighborhoods without Gram pieces")
    G, C, yy = ns.grams
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".ns-", suffix=".tmp"
    )
    try:
        # Through a file object: np.savez appends ".npz" to a bare path.
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                G=G,
                C=C,
                yy=yy,
                outputs=ns.object_outputs,
                meta=np.array([ns.z, ns.n_synth, ns.seed], dtype=np.int64),
            )
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_cache(path: str) -> NeighborhoodSet | None:
    """A labeled set of Gram pieces and object outputs, or None for a miss.

    The file is outside input.  It is a miss, and is closed, when it is
    missing, is not a readable ``.npz`` or lacks one of its arrays (as a
    file of the older row format, with ``samples`` and ``bb_outputs``,
    does), or unless all of these hold:

    * ``G``, ``C``, ``yy`` and ``outputs`` are float64 arrays of ranks 3,
      3, 1 and 2 over one object count; ``G`` is square, ``C`` has as
      many rows as ``G`` and as many columns as ``outputs``; ``meta`` is
      3 integers;
    * every value is finite and every ``yy`` is at least 0;
    * every ``G`` is exactly symmetric, as
      :func:`whitebox.neighborhood_grams` forms it;
    * every corner ``G[:, m, m]`` equals ``1 + n_synth``.

    Whether the shapes and settings fit the current run is the caller's
    check.  Values that pass are trusted as they are: nothing here can
    tell pieces formed from other rows or from another model's outputs,
    so a file edited to keep these properties, or one written for a
    black box that has since changed behind the same cache key, yields
    wrong surrogates and losses without an error.
    """
    try:
        # Through a file object that this block closes: np.load leaves a
        # path it opened itself open when the archive is corrupt.
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                return None  # a bare .npy array
            with data:
                G, C, yy, outputs, meta = (data[k] for k in ("G", "C", "yy", "outputs", "meta"))
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    arrays = (G, C, yy, outputs)
    if not (
        all(a.dtype == np.float64 for a in arrays)
        and tuple(a.ndim for a in arrays) == (3, 3, 1, 2)
        and len({a.shape[0] for a in arrays}) == 1
        and 1 <= G.shape[1] == G.shape[2] == C.shape[1]
        and C.shape[2] == outputs.shape[1]
        and meta.shape == (3,)
        and meta.dtype.kind == "i"
        and all(np.isfinite(a).all() for a in arrays)
        and (yy >= 0.0).all()
        and np.array_equal(G, G.transpose(0, 2, 1))
        and (G[:, -1, -1] == 1.0 + float(meta[1])).all()
    ):
        return None
    return NeighborhoodSet(
        samples=None,
        z=int(meta[0]),
        n_synth=int(meta[1]),
        seed=int(meta[2]),
        object_outputs=outputs,
        grams=(G, C, yy),
    )
