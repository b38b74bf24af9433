"""Multi-output ridge surrogates.

One surrogate predicts all class probabilities at once: a coefficient
matrix of shape (classes, columns) plus per-class intercepts.  Every fit
solves the penalized normal equations of the augmented design [X, 1]
(intercept column last, unpenalized), factoring once for all outputs,
and turns the solution into a model with :func:`model_from_solution`.
The equations come from precomputed per-object Gram pieces, summed
over the members: :func:`fit_on_neighborhoods` fits one subgroup and
:func:`fit_parts` several in one stacked solve, so a subgroup fit, the
global baseline, and the root of a partition run share one code path
and produce bit-identical models for equal inputs.

The per-object Gram pieces come from batched BLAS products of each
neighborhood with itself and with its black-box outputs, written straight
into the Gram arrays (:func:`kernels.gram_pieces`); the intercept row and
column are filled from the column sums, so no augmented copy of the
neighborhoods is built.  :func:`neighborhood.label` forms them chunk by
chunk as it streams the rows, on the build's workers, with BLAS held to
one thread, so every object's pieces have the bits of a one-thread pass.
BLAS sums in its own order, so the last bits of these pieces, and of
every model fitted from them, can differ between BLAS builds.  Losses come
from the same pieces: :func:`subgroup_loss` sums the members' pieces and
evaluates the residual with :func:`kernels.residual_sse`, the formula the
split scan uses, so no loss reads the neighborhood rows.

The pieces are the only per-object state that fits and losses read, so
they are also what the neighborhood cache stores
(:func:`neighborhood.save_cache`).  A set read back from a cache file
holds the pieces and no rows, and every function here works on it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError
from .neighborhood import NeighborhoodSet


@dataclass(frozen=True)
class WhiteBoxModel:
    """Affine multi-output model: predictions = X @ coefficients.T + intercepts."""

    coefficients: np.ndarray  # (p, m')
    intercepts: np.ndarray  # (p,)
    lam: float


def predict(model: WhiteBoxModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.coefficients.shape[1]:
        raise InputError(
            f"{X.shape[1]} columns vs model with {model.coefficients.shape[1]}"
        )
    return X @ model.coefficients.T + model.intercepts


# ---------------------------------------------------------------------------
# neighborhood-pooled fitting
# ---------------------------------------------------------------------------


def neighborhood_grams(
    ns: NeighborhoodSet, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-object Gram pieces (G_i, C_i, yy_i) of the augmented design.

    With X_i the object's (S, m) neighborhood and Y_i its (S, p) outputs,
    the augmented design is [X_i, 1]; :func:`kernels.gram_pieces` says
    how each piece is formed.  :func:`neighborhood.label` forms them as
    it streams the rows, and a set read back from a cache file holds
    them too, so for those sets this is a lookup.  A set made with
    explicit rows and outputs (``samples`` and ``bb_outputs``) gets its
    pieces formed here, once, and cached on ``ns``: with ``threads > 1``
    a pool of at most ``threads`` workers forms those of contiguous
    ranges of objects, with BLAS held to one thread, so each object's
    pieces have the same bits at any thread count.
    """
    if ns.grams is None:
        if ns.bb_outputs is None:
            raise InputError("neighborhoods are missing cached black-box outputs")
        if threads < 1:
            raise InputError(f"threads must be >= 1, got {threads}")
        ns.grams = _grams_from_rows(ns.samples, ns.bb_outputs, threads)
    return ns.grams


@kernels.one_blas_thread()
def _grams_from_rows(X: np.ndarray, Y: np.ndarray, threads: int) -> tuple:
    """The pieces of :func:`neighborhood_grams`, formed from rows X and outputs Y."""
    n, _, m = X.shape
    G = np.empty((n, m + 1, m + 1))
    C = np.empty((n, m + 1, Y.shape[2]))
    yy = np.empty(n)

    def work(w: int, lo: int, hi: int) -> None:
        kernels.gram_pieces(X[lo:hi], Y[lo:hi], G[lo:hi], C[lo:hi], yy[lo:hi])

    kernels.over_ranges(n, max(1, min(threads, n)), work)
    return G, C, yy


def fit_on_neighborhoods(ns: NeighborhoodSet, members: np.ndarray, lam: float) -> WhiteBoxModel:
    """Fit one surrogate on the pooled neighborhoods of the given objects.

    This never raises on a singular system, even at ``lam == 0``: the
    kernel falls back to the minimum-norm least-squares solution, which
    still minimizes the sum of squared errors for these (consistent)
    normal equations.
    """
    return fit_parts(ns, [members], lam)[0]


def fit_parts(ns: NeighborhoodSet, parts, lam: float) -> list[WhiteBoxModel]:
    """One surrogate per member array, as :func:`fit_on_neighborhoods` fits it.

    Every part's pooled system goes into one stacked solve, which gives
    each matrix the same bits as a solve of its own.
    """
    parts = [np.asarray(members, dtype=np.int64) for members in parts]
    if any(members.size == 0 for members in parts):
        raise InputError("cannot fit on an empty subgroup")
    pooled = [_pooled_grams(ns, members) for members in parts]
    G = np.stack([g for g, _, _ in pooled])
    C = np.stack([c for _, c, _ in pooled])
    B, _ = kernels.solve_stack(G, C, lam, G.shape[1] - 1)
    return [model_from_solution(b, lam) for b in B]


def _pooled_grams(ns: NeighborhoodSet, members: np.ndarray) -> tuple:
    """The members' Gram pieces summed in member order: (G, C, yy)."""
    G_all, C_all, yy_all = neighborhood_grams(ns)
    return G_all[members].sum(axis=0), C_all[members].sum(axis=0), yy_all[members].sum()


def model_from_solution(B: np.ndarray, lam: float) -> WhiteBoxModel:
    """Model from a (m + 1, p) normal-equation solution, intercept row last."""
    m = B.shape[0] - 1
    return WhiteBoxModel(
        coefficients=np.ascontiguousarray(B[:m].T),
        intercepts=np.ascontiguousarray(B[m].copy()),
        lam=float(lam),
    )


def subgroup_loss(ns: NeighborhoodSet, members: np.ndarray, model: WhiteBoxModel) -> float:
    """Sum of squared errors of the model over the members' neighborhoods.

    Evaluated by :func:`kernels.residual_sse` on the members' summed Gram
    pieces, with the model stacked back into its (m + 1, p) solution.
    """
    G, C, yy = _pooled_grams(ns, np.asarray(members, dtype=np.int64))
    B = np.vstack([model.coefficients.T, model.intercepts])
    return float(kernels.residual_sse(G[None], C[None], np.asarray([yy]), B[None])[0])


# ---------------------------------------------------------------------------
# inspection and serialization
# ---------------------------------------------------------------------------


def feature_importance(
    model: WhiteBoxModel, class_index: int, column_names: tuple[str, ...]
) -> list[tuple[str, float, float]]:
    """(column, coefficient, share) per column, sorted by descending share.

    The share of a column is |coefficient| over the L1 norm of the
    class's coefficient row.  Ties keep column order.  An all-zero row
    has no defined shares; that returns an empty list with a warning.
    """
    row = model.coefficients[class_index]
    if len(column_names) != row.shape[0]:
        raise InputError(
            f"{len(column_names)} names vs {row.shape[0]} coefficients"
        )
    total = float(np.sum(np.abs(row)))
    if total == 0.0:
        warnings.warn(
            f"all coefficients are zero for class index {class_index}; "
            "importance shares are undefined"
        )
        return []
    order = sorted(range(row.shape[0]), key=lambda j: (-abs(row[j]), j))
    return [(column_names[j], float(row[j]), float(abs(row[j]) / total)) for j in order]


def model_to_dict(
    model: WhiteBoxModel, columns: tuple[str, ...], classes: tuple[str, ...]
) -> dict:
    """JSON form of the model, as dumped per subgroup in ``partition.json``.

    Rows of ``coefficients`` follow ``classes``, columns follow ``columns``.
    ``sd4x eval`` reads it back from the dump; it has no ``type`` key, so
    it is not a black-box file.
    """
    return {
        "columns": list(columns),
        "classes": list(classes),
        "coefficients": model.coefficients.tolist(),
        "intercepts": model.intercepts.tolist(),
        "lambda": model.lam,
    }
