"""Black-box classifier interfaces.

A black box maps a batch of encoded rows to row-stochastic class
probability rows.  Built-in implementations cover a softmax-linear
model, a piecewise softmax-linear model keyed by threshold conditions
on encoded columns, and an adapter that shells out to an external
command speaking a CSV batch protocol.
"""
from __future__ import annotations

import csv
import math
import shutil
import subprocess
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from .dataset import NUMBER, is_json, is_json_strings, json_array, read_json, write_json
from .errors import ExternalBlackBoxError, InputError


@runtime_checkable
class BlackBox(Protocol):
    classes: tuple[str, ...]
    columns: tuple[str, ...]

    def predict_batch(self, X: np.ndarray) -> np.ndarray: ...


def _check_batch(X: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(columns):
        raise InputError(
            f"batch shape {X.shape} does not match {len(columns)} encoded columns"
        )
    return X


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (n, p) array, shifted by each row's maximum.

    The maximum is a running ``np.maximum`` over the p columns, one
    vectorised step per class: ``max(axis=1)`` would run one reduction
    per row.  Both give the same bits.
    """
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    shifted = logits - top[:, None]
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class LinearBlackBox:
    """softmax(X @ weights.T + biases)."""

    classes: tuple[str, ...]
    columns: tuple[str, ...]
    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        p, m = len(self.classes), len(self.columns)
        if self.weights.shape != (p, m):
            raise InputError(
                f"weights shape {self.weights.shape} does not match ({p}, {m})"
            )
        if self.biases.shape != (p,):
            raise InputError(f"biases shape {self.biases.shape} does not match ({p},)")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise InputError("weights and biases must be finite")

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _check_batch(X, self.columns)
        return softmax(X @ self.weights.T + self.biases)


@dataclass(frozen=True)
class Condition:
    """Threshold test on one encoded column: value <= v or value > v."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in ("le", "gt"):
            raise InputError(f"condition op must be 'le' or 'gt', got {self.op!r}")
        if not math.isfinite(self.value):
            raise InputError(f"condition value must be finite, got {self.value!r}")

    def mask(self, X: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
        try:
            j = columns.index(self.column)
        except ValueError:
            raise InputError(f"condition column {self.column!r} not in columns") from None
        if self.op == "le":
            return X[:, j] <= self.value
        return X[:, j] > self.value


@dataclass
class Regime:
    conditions: tuple[Condition, ...]
    weights: np.ndarray
    biases: np.ndarray


@dataclass
class PiecewiseLinearBlackBox:
    """Per-regime softmax-linear model; regimes must partition the space."""

    classes: tuple[str, ...]
    columns: tuple[str, ...]
    regimes: list[Regime] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.regimes:
            raise InputError("piecewise black box needs at least one regime")
        p, m = len(self.classes), len(self.columns)
        for k, reg in enumerate(self.regimes):
            reg.weights = np.asarray(reg.weights, dtype=np.float64)
            reg.biases = np.asarray(reg.biases, dtype=np.float64)
            if reg.weights.shape != (p, m):
                raise InputError(f"regime {k}: weights shape {reg.weights.shape}")
            if reg.biases.shape != (p,):
                raise InputError(f"regime {k}: biases shape {reg.biases.shape}")
            if not (np.isfinite(reg.weights).all() and np.isfinite(reg.biases).all()):
                raise InputError(f"regime {k}: weights and biases must be finite")
            for cond in reg.conditions:
                cond.mask(np.zeros((0, m)), self.columns)

    def regime_index(self, X: np.ndarray) -> np.ndarray:
        """Index of the single matching regime per row; errors otherwise."""
        X = _check_batch(X, self.columns)
        masks = np.stack(
            [
                np.logical_and.reduce(
                    [c.mask(X, self.columns) for c in reg.conditions]
                )
                if reg.conditions
                else np.ones(X.shape[0], dtype=bool)
                for reg in self.regimes
            ]
        )
        counts = masks.sum(axis=0)
        if np.any(counts != 1):
            bad = int(np.nonzero(counts != 1)[0][0])
            raise InputError(
                f"row {bad} matches {int(counts[bad])} regimes; rules must "
                "partition the feature space"
            )
        which = np.zeros(X.shape[0], dtype=np.intp)
        for k in range(1, len(masks)):
            which[masks[k]] = k  # each row matches one regime: no per-row argmax
        return which

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _check_batch(X, self.columns)
        which = self.regime_index(X)
        out = np.empty((X.shape[0], len(self.classes)))
        for k, reg in enumerate(self.regimes):
            rows = which == k
            if np.any(rows):
                out[rows] = softmax(X[rows] @ reg.weights.T + reg.biases)
        return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def blackbox_to_dict(bb: LinearBlackBox | PiecewiseLinearBlackBox) -> dict:
    if isinstance(bb, LinearBlackBox):
        return {
            "type": "linear",
            "classes": list(bb.classes),
            "columns": list(bb.columns),
            "weights": bb.weights.tolist(),
            "biases": bb.biases.tolist(),
        }
    return {
        "type": "piecewise_linear",
        "classes": list(bb.classes),
        "columns": list(bb.columns),
        "regimes": [
            {
                "conditions": [
                    {"column": c.column, "op": c.op, "value": c.value}
                    for c in reg.conditions
                ],
                "weights": reg.weights.tolist(),
                "biases": reg.biases.tolist(),
            }
            for reg in bb.regimes
        ],
    }


def regimes_from_list(raw: object) -> list[Regime]:
    """Regimes from their JSON list, as in a black-box file or a synth spec.

    Each regime is an object with ``weights``, ``biases`` and optional
    ``conditions``.  Types are checked here and errors name the regime;
    shapes are checked by whoever builds the black box from them.
    """
    if not isinstance(raw, list) or not raw:
        raise InputError("piecewise model needs a non-empty 'regimes' list")
    regimes = []
    for k, reg in enumerate(raw):
        if not isinstance(reg, dict):
            raise InputError(f"regime #{k} is not a JSON object")
        for key in ("weights", "biases"):
            if key not in reg:
                raise InputError(f"regime #{k}: missing {key!r}")
        weights, biases = json_array(reg["weights"]), json_array(reg["biases"])
        if weights is None or biases is None:
            raise InputError(f"regime #{k}: weights and biases must be arrays of finite numbers")
        conditions = reg.get("conditions", [])
        if not isinstance(conditions, list) or not all(
            isinstance(c, dict)
            and is_json(c.get("column"), str)
            and c.get("op") in ("le", "gt")
            and is_json(c.get("value"), NUMBER)
            for c in conditions
        ):
            raise InputError(
                f"regime #{k}: each condition needs a string 'column', an 'op' of "
                "'le' or 'gt' and a finite number 'value'"
            )
        conditions = tuple(Condition(c["column"], c["op"], float(c["value"])) for c in conditions)
        regimes.append(Regime(conditions=conditions, weights=weights, biases=biases))
    return regimes


def blackbox_from_dict(obj: dict) -> LinearBlackBox | PiecewiseLinearBlackBox:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("black-box description needs a 'type' field")
    classes, columns = obj.get("classes"), obj.get("columns")
    if not (is_json_strings(classes) and is_json_strings(columns)):
        raise InputError(
            "bad black-box description: 'classes' and 'columns' must be lists of strings"
        )
    classes, columns = tuple(classes), tuple(columns)
    if obj["type"] == "linear":
        weights = json_array(obj.get("weights", obj.get("coefficients")))
        biases = json_array(obj.get("biases", obj.get("intercepts")))
        if weights is None or biases is None:
            raise InputError(
                "bad black-box description: a linear black box needs weights and "
                "biases as arrays of finite numbers"
            )
        return LinearBlackBox(classes, columns, weights, biases)
    if obj["type"] == "piecewise_linear":
        return PiecewiseLinearBlackBox(classes, columns, regimes_from_list(obj.get("regimes")))
    raise InputError(f"unknown black-box type {obj['type']!r}")


def save_blackbox(path: str, bb: LinearBlackBox | PiecewiseLinearBlackBox) -> None:
    write_json(path, blackbox_to_dict(bb))


def load_blackbox(path: str) -> LinearBlackBox | PiecewiseLinearBlackBox:
    return blackbox_from_dict(read_json(path, "black box"))


# ---------------------------------------------------------------------------
# external adapter
# ---------------------------------------------------------------------------

_SUM_ACCEPT = 1e-9
_SUM_RENORM = 1e-6
_NEG_CLIP = -1e-12
_STDERR_HEAD = 4096  # bytes of the command's stderr read for an error message


@dataclass
class ExternalBlackBox:
    """Adapter around an external command speaking the CSV batch protocol.

    Each call writes ``request.csv`` (header = encoded column names) to a
    fresh temporary directory, runs ``command + [directory]``, and reads
    back ``response.csv`` whose header must name every class and whose
    rows must be exactly one per request row.  The command's stdout is
    discarded and its stderr goes to a file in the same directory, which
    is read only to explain a nonzero exit.  Calls are serialized with a
    lock.  Tiny negative probabilities are clipped, near-unit row sums
    are accepted or renormalized with a warning, and anything worse is
    an error.
    """

    classes: tuple[str, ...]
    columns: tuple[str, ...]
    command: tuple[str, ...]
    timeout: float | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _check_batch(X, self.columns)
        with self._lock:
            return self._call(X)

    def _call(self, X: np.ndarray) -> np.ndarray:
        workdir = Path(tempfile.mkdtemp(prefix="sd4x-bb-"))
        try:
            request = workdir / "request.csv"
            with open(request, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(self.columns)
                # Same bytes as a csv.writer row of repr(float) cells: a
                # float repr never needs quoting.  Rows are converted one
                # at a time; X.tolist() would hold every float at once.
                fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in X)
            stderr = workdir / "stderr.log"
            try:
                with open(stderr, "wb") as err:
                    proc = subprocess.run(
                        list(self.command) + [str(workdir)],
                        stdout=subprocess.DEVNULL,
                        stderr=err,
                        timeout=self.timeout,
                    )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise ExternalBlackBoxError(f"external black box failed: {exc}") from exc
            if proc.returncode != 0:
                with open(stderr, "rb") as fh:
                    head = fh.read(_STDERR_HEAD).decode("utf-8", errors="replace")
                raise ExternalBlackBoxError(
                    f"external black box exited with {proc.returncode}: "
                    f"{head.strip()[:500]}"
                )
            response = workdir / "response.csv"
            if not response.exists():
                raise ExternalBlackBoxError("external black box wrote no response.csv")
            try:
                probs = self._read_response(response, X.shape[0])
            except (UnicodeDecodeError, csv.Error) as exc:
                raise ExternalBlackBoxError(f"unreadable response.csv: {exc}") from exc
            return self._sanitize(probs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _read_response(self, response: Path, n: int) -> np.ndarray:
        """The (n, classes) probabilities of ``response.csv``, in class order.

        Each row is parsed straight into a preallocated array, and a row
        beyond the n requested is an error at once, so the file is never
        held whole, whatever its length.
        """
        probs = np.empty((n, len(self.classes)))
        with open(response, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ExternalBlackBoxError("response.csv is empty")
            try:
                order = [header.index(c) for c in self.classes]
            except ValueError:
                raise ExternalBlackBoxError(
                    f"response header {header} does not name classes "
                    f"{list(self.classes)}"
                ) from None
            # itemgetter of one index returns the cell itself, not a tuple
            pick = itemgetter(*order) if len(order) > 1 else lambda cells: (cells[order[0]],)
            i = 0
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise ExternalBlackBoxError(
                        f"response row has {len(cells)} cells, expected {len(header)}"
                    )
                if i == n:
                    raise ExternalBlackBoxError(
                        f"response has more than the {n} rows requested"
                    )
                try:
                    probs[i] = list(map(float, pick(cells)))
                except ValueError as exc:
                    raise ExternalBlackBoxError(
                        f"non-numeric probability in response: {exc}"
                    ) from exc
                i += 1
        if i != n:
            raise ExternalBlackBoxError(
                f"response shape {(i, len(self.classes))} does not match "
                f"({n}, {len(self.classes)})"
            )
        return probs

    def _sanitize(self, probs: np.ndarray) -> np.ndarray:
        """Check the response's probabilities; clip and renormalize in place."""
        if not np.all(np.isfinite(probs)):
            raise ExternalBlackBoxError("non-finite probability in response")
        if np.any(probs < _NEG_CLIP):
            bad = float(probs.min())
            raise ExternalBlackBoxError(f"negative probability {bad} in response")
        np.clip(probs, 0.0, None, out=probs)
        sums = probs.sum(axis=1)
        err = sums - 1.0
        np.abs(err, out=err)
        if np.any(err > _SUM_RENORM):
            bad = float(sums[np.argmax(err)])
            raise ExternalBlackBoxError(f"probability row sums to {bad}")
        fix = err > _SUM_ACCEPT
        if np.any(fix):
            warnings.warn(
                f"renormalizing {int(fix.sum())} probability rows from the "
                "external black box"
            )
            probs[fix] /= sums[fix, None]
        return probs
