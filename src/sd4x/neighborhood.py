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

The objects are built in chunks of about ``_BUILD_CHUNK_ROWS`` rows: each
object's normals are drawn from its own substream into its own slice of
a reused buffer, one stacked product applies the Cholesky factor to the
whole chunk, and the chunk is discretized in place.  With more threads
each worker of a pool (:func:`kernels.over_ranges`) builds a contiguous
range of objects the same way, in chunks of ``_BUILD_CHUNK_ROWS //
workers`` rows, while the calling thread waits.

The build and labeling run with BLAS held to one thread
(:func:`kernels.one_blas_thread`), so every worker's products run on
the worker's own thread.  The stacked product makes the same per-object
BLAS call as a product over one object, and discretization works row by
row, so the samples are bit-identical for any thread count and chunk
size.  A black box that ``label`` calls also sees one BLAS thread.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from . import kernels
from .blackbox import BlackBox
from .dataset import AttributeKind, EncodedMatrix, attribute_slices
from .errors import InputError

_LABEL_CHUNK = 65536
# Neighborhood rows per chunk of build; bounds the draw buffers.
_BUILD_CHUNK_ROWS = 8192


@dataclass
class NeighborhoodSet:
    """Neighborhoods of the explained objects and what later stages read of them.

    :func:`build` fills ``samples``, the discretized rows.  :func:`label`
    adds every row's black-box outputs (``bb_outputs``) and each object's
    own outputs (``object_outputs``, a view of the first row's), which
    the top-k F1 check reads.  The per-object Gram pieces (``grams``, see
    the whitebox module) are formed once from rows and outputs, and every
    later stage reads only them and the object outputs.  A set read back
    by :func:`load_cache` holds just those two, with no rows.
    """

    samples: np.ndarray | None  # (n_objects, 1 + n_synth, m'); None when cached
    z: int
    n_synth: int
    seed: int
    bb_outputs: np.ndarray | None = None  # (n_objects, 1 + n_synth, p)
    object_outputs: np.ndarray | None = None  # (n_objects, p); None until labeled
    grams: tuple | None = None  # (G, C, yy), see the whitebox module

    def __post_init__(self) -> None:
        if self.object_outputs is None and self.bb_outputs is not None:
            self.object_outputs = self.bb_outputs[:, 0]

    @property
    def n_objects(self) -> int:
        """Objects in the set: rows of the outputs once labeled, else of the samples."""
        held = self.samples if self.object_outputs is None else self.object_outputs
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
    """Generate discretized neighborhoods for every encoded object.

    With ``threads > 1`` a pool of at most ``threads`` workers, and no
    more than the chunks a one-thread build walks (so no more than there
    are objects), runs the whole build: each worker draws, multiplies
    and discretizes its own range of objects.  The samples do not depend
    on ``threads``.
    """
    if n_synth < 0:
        raise InputError(f"n_synth must be >= 0, got {n_synth}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    sigma = estimate_covariance(enc.values)
    L = scaled_cholesky(sigma, z)
    n, m = enc.n, enc.m
    size = 1 + n_synth
    samples = np.empty((n, size, m))
    samples[:, 0] = enc.values
    workers = min(threads, max(1, -(-n // max(1, _BUILD_CHUNK_ROWS // size))))
    step = max(1, _BUILD_CHUNK_ROWS // workers // size)
    # Allocated here rather than in the workers, whose allocations would
    # each grow a malloc arena of their own.
    buffers = [np.empty((min(step, -(-n // workers)), n_synth, m)) for _ in range(workers)]

    def work(w: int, lo: int, hi: int) -> None:
        _build_range(samples, enc, L, seed, lo, hi, buffers[w])

    kernels.over_ranges(n, workers, work)
    return NeighborhoodSet(samples=samples, z=z, n_synth=n_synth, seed=seed)


def _build_range(samples, enc, L, seed, lo, hi, g) -> None:
    """Build objects ``lo:hi`` into ``samples``, ``len(g)`` objects at a time.

    Each object's normals come from its own substream of ``seed``.
    """
    m = samples.shape[2]
    for start in range(lo, hi, max(1, len(g))):
        stop = min(start + len(g), hi)
        for k, i in enumerate(range(start, stop)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            rng.standard_normal(out=g[k])
        synth = samples[start:stop, 1:]
        np.matmul(g[: stop - start], L.T, out=synth)
        synth += enc.values[start:stop, None, :]
        discretize(samples[start:stop].reshape(-1, m), enc)


@kernels.one_blas_thread()
def label(ns: NeighborhoodSet, bb: BlackBox) -> NeighborhoodSet:
    """Run the black box over every neighborhood row, in fixed-size chunks.

    ``_LABEL_CHUNK`` rows go to the black box per call, which sets the
    number of external black-box processes.  Each chunk's outputs are
    written into one preallocated array, so the outputs are held once,
    plus one chunk.  A chunk whose outputs are not one probability per
    class and row is bad input.
    """
    n, S, m = ns.samples.shape
    flat = ns.samples.reshape(n * S, m)
    p = len(bb.classes)
    probs = np.empty((n * S, p))
    for start in range(0, flat.shape[0], _LABEL_CHUNK):
        rows = flat[start : start + _LABEL_CHUNK]
        part = bb.predict_batch(rows)
        if part.shape != (rows.shape[0], p):
            raise InputError(
                f"black box returned outputs of shape {part.shape} "
                f"for {rows.shape[0]} rows and {p} classes"
            )
        probs[start : start + rows.shape[0]] = part
        del part  # free this chunk before the next call allocates its own
    ns.bb_outputs = probs.reshape(n, S, p)
    ns.object_outputs = ns.bb_outputs[:, 0]
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
