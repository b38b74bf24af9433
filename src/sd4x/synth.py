"""Synthetic dataset generation with a known piecewise-linear oracle.

A synthesis spec declares typed attributes, class names, value ranges,
and regime rules: threshold conditions over encoded columns, each with
its own softmax-linear coefficients.  Features are drawn independently
and uniformly (numeric on the declared range, categorical and boolean
over their values).  The regime rules must partition the feature space;
that is checked on the generated rows plus a deterministic batch of
probe rows, and violations reject the spec.  Optional coefficient noise
perturbs each regime's weights once, at generation time, with a seeded
draw, so the returned black box stays deterministic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .blackbox import PiecewiseLinearBlackBox, Regime, blackbox_to_dict, regimes_from_list
from .dataset import Attribute, AttributeKind, Dataset, encode, schema_from_dict
from .errors import InputError

_PROBES = 512


@dataclass
class SynthSpec:
    attributes: tuple[Attribute, ...]
    classes: tuple[str, ...]
    n: int
    regimes: list[Regime]
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    noise_scale: float = 0.0


@dataclass
class SynthResult:
    dataset: Dataset
    blackbox: PiecewiseLinearBlackBox
    ground_truth: dict


def spec_from_dict(obj: dict) -> SynthSpec:
    attributes, classes = schema_from_dict(obj)
    n = obj.get("n")
    if not isinstance(n, int) or n < 1:
        raise InputError(f"spec needs a positive integer 'n', got {n!r}")
    regimes = regimes_from_list(obj.get("regimes"))
    raw_ranges = obj.get("ranges", {})
    if not isinstance(raw_ranges, dict):
        raise InputError("spec 'ranges' must be an object of [lo, hi] pairs")
    ranges = {}
    for name, pair in raw_ranges.items():
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(_is_finite_number(v) for v in pair)
            or pair[0] >= pair[1]
        ):
            raise InputError(f"range for {name!r} must be [lo, hi] numbers with lo < hi")
        ranges[str(name)] = (float(pair[0]), float(pair[1]))
    known = {a.name for a in attributes}
    for name in ranges:
        if name not in known:
            raise InputError(f"range given for unknown attribute {name!r}")
    noise_scale = obj.get("noise_scale", 0.0)
    if not _is_finite_number(noise_scale) or noise_scale < 0:
        raise InputError(f"spec 'noise_scale' must be a number >= 0, got {noise_scale!r}")
    return SynthSpec(
        attributes=attributes,
        classes=classes,
        n=n,
        regimes=regimes,
        ranges=ranges,
        noise_scale=float(noise_scale),
    )


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _draw_rows(spec: SynthSpec, rng: np.random.Generator, n: int) -> list[tuple]:
    rows = []
    for _ in range(n):
        row = []
        for attr in spec.attributes:
            if attr.kind is AttributeKind.NUMERIC:
                lo, hi = spec.ranges.get(attr.name, (0.0, 1.0))
                row.append(float(rng.uniform(lo, hi)))
            elif attr.kind is AttributeKind.BOOLEAN:
                row.append(bool(rng.random() < 0.5))
            else:
                row.append(attr.categories[int(rng.integers(len(attr.categories)))])
        rows.append(tuple(row))
    return rows


def generate_synthetic(spec: SynthSpec, seed: int = 0) -> SynthResult:
    """Draw the dataset, build the oracle, validate its regime rules."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rows_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    noise_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    probe_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))

    rows = _draw_rows(spec, rows_rng, spec.n)
    dataset = Dataset(spec.attributes, spec.classes, rows)
    enc = encode(dataset)

    p = len(spec.classes)
    regimes = []
    for reg in spec.regimes:
        weights = np.array(reg.weights, dtype=np.float64)
        biases = np.array(reg.biases, dtype=np.float64)
        if weights.shape != (p, enc.m):
            raise InputError(
                f"regime weights shape {weights.shape} does not match ({p}, {enc.m})"
            )
        if biases.shape != (p,):
            raise InputError(f"regime biases shape {biases.shape}")
        if spec.noise_scale > 0.0:
            weights = weights + spec.noise_scale * noise_rng.standard_normal(weights.shape)
            biases = biases + spec.noise_scale * noise_rng.standard_normal(biases.shape)
        regimes.append(Regime(reg.conditions, weights, biases))
    bb = PiecewiseLinearBlackBox(spec.classes, enc.column_names, regimes)

    probe_rows = _draw_rows(spec, probe_rng, _PROBES)
    probe_enc = encode(Dataset(spec.attributes, spec.classes, probe_rows))
    try:
        bb.regime_index(probe_enc.values)
        regime_of_row = bb.regime_index(enc.values)
    except InputError as exc:
        raise InputError(f"regime rules rejected: {exc}") from exc

    probs = bb.predict_batch(enc.values)
    labels = [spec.classes[int(k)] for k in probs.argmax(axis=1)]
    dataset.labels = labels

    ground_truth = {
        "seed": seed,
        "noise_scale": spec.noise_scale,
        "blackbox": blackbox_to_dict(bb),
        "regime_of_row": [int(k) for k in regime_of_row],
    }
    return SynthResult(dataset=dataset, blackbox=bb, ground_truth=ground_truth)
