"""Multi-output ridge surrogates.

One surrogate predicts all class probabilities at once: a coefficient
matrix of shape (classes, columns) plus per-class intercepts.  Fitting
solves the penalized normal equations on the augmented design (intercept
column last, unpenalized), factoring once for all outputs.  The same
Gram-based path also fits subgroups directly from pooled neighborhoods,
so a subgroup fit, the global baseline, and the root of a partition run
share one code path and produce bit-identical models for equal inputs.

The per-object Gram pieces come from batched BLAS products of each
neighborhood with itself and with its black-box outputs; the intercept
row and column are filled from the column sums, so no augmented copy of
the neighborhoods is built.  BLAS sums in its own order, so the last bits
of these pieces, and of every model fitted from them, can differ between
BLAS builds.  The subgroup loss is still computed from the samples
themselves, as an independent check on the Gram-based fits, a bounded
block of rows at a time.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError, SingularSystemError
from .neighborhood import NeighborhoodSet


# Neighborhood rows per block of subgroup_loss; bounds its temporaries.
_LOSS_BLOCK_ROWS = 1 << 15


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


def fit_ridge(
    X: np.ndarray,
    Y: np.ndarray,
    lam: float,
    fit_intercept: bool = True,
    standardize: bool = False,
) -> WhiteBoxModel:
    """Fit the multi-output ridge model.

    The penalty applies to coefficients only, never the intercept.  With
    ``standardize`` the columns are scaled to unit variance before
    fitting and the solution is mapped back to the original units.  A
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
    if lam < 0:
        raise InputError(f"lambda must be >= 0, got {lam}")
    k, m = X.shape
    mu = np.zeros(m)
    sd = np.ones(m)
    if standardize:
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        X = (X - mu) / sd
    if fit_intercept:
        Xa = np.concatenate([X, np.ones((k, 1))], axis=1)
        npen = m
    else:
        Xa = X
        npen = m
    G = Xa.T @ Xa
    C = Xa.T @ Y
    B, chol_ok = kernels.solve_penalized(G, C, lam, npen)
    if not chol_ok and lam == 0.0:
        raise SingularSystemError(
            "normal equations are singular at lambda = 0; refit with lambda > 0"
        )
    if fit_intercept:
        coef = B[:m].T
        intercept = B[m].copy()
    else:
        coef = B.T
        intercept = np.zeros(Y.shape[1])
    if standardize:
        intercept = intercept - coef @ (mu / sd)
        coef = coef / sd
    return WhiteBoxModel(
        coefficients=np.ascontiguousarray(coef),
        intercepts=np.ascontiguousarray(intercept),
        lam=float(lam),
    )


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
    G[:, :m, :m] = Xt @ X
    sx = X.sum(axis=1)
    G[:, :m, m] = sx
    G[:, m, :m] = sx
    G[:, m, m] = S
    C = np.empty((n, m + 1, Y.shape[2]))
    C[:, :m] = Xt @ Y
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
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise InputError("cannot fit on an empty subgroup")
    G_all, C_all, _ = neighborhood_grams(ns)
    G = G_all[members].sum(axis=0)
    C = C_all[members].sum(axis=0)
    m = ns.samples.shape[2]
    B, _ = kernels.solve_penalized(G, C, lam, m)
    return model_from_solution(B, lam)


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

    The members are walked in order, in blocks of about
    ``_LOSS_BLOCK_ROWS`` neighborhood rows, and the block sums are added
    in that order, so the temporaries stay bounded whatever the subgroup
    size.
    """
    if ns.bb_outputs is None:
        raise InputError("neighborhoods are missing cached black-box outputs")
    members = np.asarray(members, dtype=np.int64)
    step = max(1, _LOSS_BLOCK_ROWS // ns.size)
    total = 0.0
    for start in range(0, members.size, step):
        block = members[start : start + step]
        diff = ns.bb_outputs[block]
        diff -= ns.samples[block] @ model.coefficients.T + model.intercepts
        total += float(np.sum(diff * diff))
    return total


# ---------------------------------------------------------------------------
# inspection and persistence
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
    """JSON form; readable by the linear black-box loader for replay."""
    return {
        "columns": list(columns),
        "classes": list(classes),
        "coefficients": model.coefficients.tolist(),
        "intercepts": model.intercepts.tolist(),
        "lambda": model.lam,
    }


def save_model(
    path: str, model: WhiteBoxModel, columns: tuple[str, ...], classes: tuple[str, ...]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, columns, classes), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> tuple[WhiteBoxModel, tuple[str, ...], tuple[str, ...]]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read model {path}: {exc}") from exc
    for key in ("columns", "classes", "coefficients", "intercepts", "lambda"):
        if key not in obj:
            raise InputError(f"model file is missing {key!r}")
    model = WhiteBoxModel(
        coefficients=np.asarray(obj["coefficients"], dtype=np.float64),
        intercepts=np.asarray(obj["intercepts"], dtype=np.float64),
        lam=float(obj["lambda"]),
    )
    return model, tuple(obj["columns"]), tuple(obj["classes"])
