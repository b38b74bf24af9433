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
    """Discretized neighborhoods and, once labeled, black-box outputs."""

    samples: np.ndarray  # (n_objects, 1 + n_synth, m')
    z: int
    n_synth: int
    seed: int
    bb_outputs: np.ndarray | None = None
    grams: tuple | None = None  # lazy per-object Gram cache, see whitebox module

    @property
    def n_objects(self) -> int:
        return int(self.samples.shape[0])

    @property
    def size(self) -> int:
        return int(self.samples.shape[1])


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
    """Write labeled neighborhoods to ``path`` (an uncompressed ``.npz``).

    The file is written under a temporary name in the same directory and
    then renamed into place, so ``path`` never holds a partial write.
    """
    if ns.bb_outputs is None:
        raise InputError("refusing to cache unlabeled neighborhoods")
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".ns-", suffix=".tmp"
    )
    try:
        # Through a file object: np.savez appends ".npz" to a bare path.
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                samples=ns.samples,
                bb_outputs=ns.bb_outputs,
                meta=np.array([ns.z, ns.n_synth, ns.seed], dtype=np.int64),
            )
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_cache(path: str) -> NeighborhoodSet | None:
    """Neighborhoods from a cache file, or None if it is missing or corrupt.

    A file that is not a readable ``.npz``, lacks an array, holds arrays
    of the wrong dtype or rank, or holds a non-finite sample or output is
    treated as corrupt.  Whether the shapes fit the current data is the
    caller's check.
    """
    try:
        # Through a file object that this block closes: np.load leaves a
        # path it opened itself open when the archive is corrupt.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            samples = data["samples"]
            outputs = data["bb_outputs"]
            meta = data["meta"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    if (
        samples.dtype != np.float64
        or outputs.dtype != np.float64
        or samples.ndim != 3
        or outputs.ndim != 3
        or outputs.shape[:2] != samples.shape[:2]
        or meta.shape != (3,)
        or meta.dtype.kind != "i"
        or not np.isfinite(samples).all()
        or not np.isfinite(outputs).all()
    ):
        return None
    return NeighborhoodSet(
        samples=samples,
        z=int(meta[0]),
        n_synth=int(meta[1]),
        seed=int(meta[2]),
        bb_outputs=outputs,
    )
