"""Multi-output ridge surrogates.

One surrogate predicts all class probabilities at once: a coefficient
matrix of shape (classes, columns) plus per-class intercepts.  Every fit
solves the penalized normal equations of the augmented design [X, 1]
(intercept column last, unpenalized), factoring once for all outputs,
and turns the solution into a model with :func:`model_from_solution`.
:func:`fit_ridge` forms those Gram pieces from one sample matrix.
:func:`fit_on_neighborhoods` sums precomputed per-object pieces instead
(:func:`fit_parts` fits several subgroups in one stacked solve), so a
subgroup fit, the global baseline, and the root of a partition run
share one code path and produce bit-identical models for equal inputs;
on the same rows the two functions agree up to rounding.

The per-object Gram pieces come from batched BLAS products of each
neighborhood with itself and with its black-box outputs, written straight
into the Gram arrays; the intercept row and column are filled from the
column sums, so no augmented copy of the neighborhoods is built.  BLAS
sums in its own order, so the last bits of these pieces, and of every
model fitted from them, can differ between BLAS builds.  Losses come
from the same pieces: :func:`subgroup_loss` sums the members' pieces and
evaluates the residual with :func:`kernels.residual_sse`, the formula the
split scan uses, so no loss reads the neighborhood rows.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError, SingularSystemError
from .neighborhood import NeighborhoodSet


@dataclass(frozen=True)
class WhiteBoxModel:
    """Affine multi-output model: predictions = X @ coefficients.T + intercepts."""

    coefficients: np.ndarray  # (p, m')
    intercepts: np.ndarray  # (p,)
    lam: float


def _as_targets(Y: np.ndarray) -> np.ndarray:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise InputError(f"targets must be 1-D or 2-D, got shape {Y.shape}")
    return Y


def fit_ridge(X: np.ndarray, Y: np.ndarray, lam: float) -> WhiteBoxModel:
    """Fit the multi-output ridge model on the augmented design [X, 1].

    The penalty applies to coefficients only, never the intercept.  A
    singular system is an error at ``lam == 0``; any positive ``lam``
    makes the system positive definite.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = _as_targets(Y)
    if X.ndim != 2:
        raise InputError(f"design must be 2-D, got shape {X.shape}")
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"{X.shape[0]} rows of X vs {Y.shape[0]} rows of Y")
    if X.shape[0] < 1:
        raise InputError("cannot fit on an empty sample")
    if not (math.isfinite(lam) and lam >= 0):
        raise InputError(f"lambda must be a finite number >= 0, got {lam}")
    k, m = X.shape
    Xa = np.concatenate([X, np.ones((k, 1))], axis=1)
    B, chol_ok = kernels.solve_penalized(Xa.T @ Xa, Xa.T @ Y, lam, m)
    if not chol_ok and lam == 0.0:
        raise SingularSystemError(
            "normal equations are singular at lambda = 0; refit with lambda > 0"
        )
    return model_from_solution(B, lam)


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


def neighborhood_grams(ns: NeighborhoodSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-object Gram pieces (G_i, C_i, yy_i) of the augmented design.

    With X_i the object's (S, m) neighborhood and Y_i its (S, p) outputs,
    the augmented design is [X_i, 1].  The blocks X_i'X_i and X_i'Y_i are
    batched BLAS products over all objects at once.  The intercept row
    and column hold the column sums of X_i (and of Y_i in C_i), and the
    corner G_i[m, m] is S.  yy_i is the sum of squared outputs.
    """
    if ns.grams is not None:
        return ns.grams
    if ns.bb_outputs is None:
        raise InputError("neighborhoods are missing cached black-box outputs")
    X = ns.samples
    Y = ns.bb_outputs
    n, S, m = X.shape
    Xt = X.transpose(0, 2, 1)
    G = np.empty((n, m + 1, m + 1))
    np.matmul(Xt, X, out=G[:, :m, :m])
    sx = X.sum(axis=1)
    G[:, :m, m] = sx
    G[:, m, :m] = sx
    G[:, m, m] = S
    C = np.empty((n, m + 1, Y.shape[2]))
    np.matmul(Xt, Y, out=C[:, :m])
    C[:, m] = Y.sum(axis=1)
    yy = np.einsum("nsp,nsp->n", Y, Y)
    ns.grams = (G, C, yy)
    return ns.grams


def fit_on_neighborhoods(ns: NeighborhoodSet, members: np.ndarray, lam: float) -> WhiteBoxModel:
    """Fit one surrogate on the pooled neighborhoods of the given objects.

    Unlike :func:`fit_ridge` this never raises on a singular system: the
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
