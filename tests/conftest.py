from __future__ import annotations

import os

import numpy as np
import pytest

from sd4x import kernels
from sd4x.blackbox import LinearBlackBox
from sd4x.dataset import (
    Attribute,
    AttributeKind,
    EncodedMatrix,
    encode,
    encoded_columns,
    load_dataset,
)
from sd4x.neighborhood import NeighborhoodSet
from sd4x.splitter import _midpoints
from sd4x.whitebox import WhiteBoxModel, fit_on_neighborhoods

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
TOY_CSV = os.path.join(DATA_DIR, "toy.csv")
TOY_SCHEMA = os.path.join(DATA_DIR, "toy_schema.json")


@pytest.fixture(scope="session")
def toy():
    return load_dataset(TOY_CSV, TOY_SCHEMA)


@pytest.fixture(scope="session")
def toy_enc(toy):
    return encode(toy)


def candidate_thresholds(values: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values of a column.

    The reference for the split search's candidate thresholds.
    """
    sv = np.unique(np.asarray(values, dtype=np.float64))
    if sv.size < 2:
        return np.empty(0)
    return _midpoints(sv[:-1], sv[1:])


def ridge_sse_stack(G, C, yy, lam, npen) -> np.ndarray:
    """Ridge SSE of every system of a Gram-form stack: solve, then residual."""
    B, _ = kernels.solve_stack(G, C, lam, npen)
    return kernels.residual_sse(G, C, yy, B)


def fit_rows(X, Y, lam) -> WhiteBoxModel:
    """The ridge surrogate of rows X with (k, p) targets Y, as the program fits it.

    The rows go in as the neighborhood of one object, so the fit runs
    through the Gram pieces and the stacked solve of every other fit.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    ns = NeighborhoodSet(
        samples=X[None], bb_outputs=Y[None], z=1, n_synth=X.shape[0] - 1, seed=0
    )
    return fit_on_neighborhoods(ns, [0], lam)


def numeric_enc(values, classes=("c0", "c1"), prefix="x") -> EncodedMatrix:
    """Encoded matrix over purely numeric attributes, for synthetic tests."""
    values = np.asarray(values, dtype=np.float64)
    attrs = tuple(
        Attribute(name=f"{prefix}{j}", kind=AttributeKind.NUMERIC)
        for j in range(values.shape[1])
    )
    return EncodedMatrix(
        values=values,
        columns=encoded_columns(attrs),
        attributes=attrs,
        classes=tuple(classes),
    )


def random_linear_bb(rng, enc, scale=1.0) -> LinearBlackBox:
    p = len(enc.classes)
    return LinearBlackBox(
        classes=enc.classes,
        columns=enc.column_names,
        weights=rng.normal(scale=scale, size=(p, enc.m)),
        biases=rng.normal(scale=scale, size=p),
    )


def mixed_dataset(rng, n=60):
    """Numeric + boolean + nominal + ordinal attributes, randomly filled."""
    from sd4x.dataset import Dataset

    attrs = (
        Attribute("a", AttributeKind.NUMERIC),
        Attribute("b", AttributeKind.NUMERIC),
        Attribute("flag", AttributeKind.BOOLEAN),
        Attribute("color", AttributeKind.NOMINAL, categories=("red", "green", "blue")),
        Attribute("level", AttributeKind.ORDINAL, categories=("low", "mid", "high")),
    )
    rows = [
        (
            float(rng.random()),
            float(rng.normal()),
            bool(rng.integers(2)),
            ("red", "green", "blue")[int(rng.integers(3))],
            ("low", "mid", "high")[int(rng.integers(3))],
        )
        for _ in range(n)
    ]
    return Dataset(attributes=attrs, classes=("c0", "c1"), rows=rows)


def mixed_enc(rng, n=60) -> EncodedMatrix:
    """Encoded mixed_dataset."""
    return encode(mixed_dataset(rng, n))
