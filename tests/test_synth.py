from __future__ import annotations

import numpy as np
import pytest

from sd4x.dataset import encode
from sd4x.errors import InputError
from sd4x.synth import generate_synthetic, spec_from_dict


def _three_regime_spec(n=50, noise_scale=0.0):
    return {
        "attributes": [
            {"name": "x0", "kind": "numeric"},
            {"name": "x1", "kind": "numeric"},
            {"name": "flag", "kind": "boolean"},
        ],
        "classes": ["lo", "hi"],
        "n": n,
        "noise_scale": noise_scale,
        "regimes": [
            {
                "conditions": [{"column": "x0", "op": "le", "value": 0.3}],
                "weights": [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                "biases": [0.0, 0.0],
            },
            {
                "conditions": [
                    {"column": "x0", "op": "gt", "value": 0.3},
                    {"column": "x0", "op": "le", "value": 0.7},
                ],
                "weights": [[0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
                "biases": [0.5, 0.0],
            },
            {
                "conditions": [{"column": "x0", "op": "gt", "value": 0.7}],
                "weights": [[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]],
                "biases": [-0.5, 0.0],
            },
        ],
    }


def test_spec_validation_errors():
    base = _three_regime_spec()
    bad_n = dict(base, n=0)
    with pytest.raises(InputError):
        spec_from_dict(bad_n)
    no_regimes = dict(base, regimes=[])
    with pytest.raises(InputError):
        spec_from_dict(no_regimes)
    bad_range = dict(base, ranges={"x0": [2.0, 1.0]})
    with pytest.raises(InputError):
        spec_from_dict(bad_range)
    unknown_range = dict(base, ranges={"nope": [0.0, 1.0]})
    with pytest.raises(InputError):
        spec_from_dict(unknown_range)
    non_object_regime = dict(base, regimes=[1])
    with pytest.raises(InputError):
        spec_from_dict(non_object_regime)
    for bad in (
        dict(base, ranges={"x0": ["a", 1]}),
        dict(base, ranges={"x0": [0.0, float("inf")]}),
        dict(base, ranges=[0.0, 1.0]),
        dict(base, noise_scale="x"),
        dict(base, noise_scale=float("nan")),
        dict(base, noise_scale=-0.5),
    ):
        with pytest.raises(InputError):
            spec_from_dict(bad)


def test_generation_is_deterministic_per_seed():
    spec = spec_from_dict(_three_regime_spec())
    a = generate_synthetic(spec, seed=42)
    b = generate_synthetic(spec, seed=42)
    c = generate_synthetic(spec, seed=43)
    assert a.dataset.rows == b.dataset.rows
    assert a.dataset.labels == b.dataset.labels
    assert a.dataset.rows != c.dataset.rows


def test_ranges_bound_numeric_draws():
    obj = _three_regime_spec(n=200)
    obj["ranges"] = {"x1": [5.0, 9.0]}
    result = generate_synthetic(spec_from_dict(obj), seed=1)
    x1 = [row[1] for row in result.dataset.rows]
    assert min(x1) >= 5.0 and max(x1) < 9.0
    x0 = [row[0] for row in result.dataset.rows]
    assert min(x0) >= 0.0 and max(x0) < 1.0


def test_labels_are_blackbox_argmax():
    result = generate_synthetic(spec_from_dict(_three_regime_spec(n=80)), seed=3)
    enc = encode(result.dataset)
    probs = result.blackbox.predict_batch(enc.values)
    want = [result.dataset.classes[i] for i in np.argmax(probs, axis=1)]
    assert result.dataset.labels == want


def test_ground_truth_regimes_match_conditions():
    result = generate_synthetic(spec_from_dict(_three_regime_spec(n=60)), seed=5)
    regime_of_row = result.ground_truth["regime_of_row"]
    for row, regime in zip(result.dataset.rows, regime_of_row):
        x0 = row[0]
        expected = 0 if x0 <= 0.3 else (1 if x0 <= 0.7 else 2)
        assert regime == expected
    assert result.ground_truth["seed"] == 5
    assert "blackbox" in result.ground_truth


def test_overlapping_regimes_rejected():
    obj = _three_regime_spec()
    obj["regimes"][1]["conditions"] = [{"column": "x0", "op": "le", "value": 0.5}]
    with pytest.raises(InputError) as err:
        generate_synthetic(spec_from_dict(obj), seed=0)
    assert "regime rules rejected" in str(err.value)


def test_gap_between_regimes_rejected():
    obj = _three_regime_spec()
    obj["regimes"][2]["conditions"] = [{"column": "x0", "op": "gt", "value": 0.9}]
    with pytest.raises(InputError):
        generate_synthetic(spec_from_dict(obj), seed=0)


def test_noise_scale_perturbs_weights_deterministically():
    noisy_spec = spec_from_dict(_three_regime_spec(noise_scale=0.05))
    clean_spec = spec_from_dict(_three_regime_spec())
    noisy = generate_synthetic(noisy_spec, seed=9)
    clean = generate_synthetic(clean_spec, seed=9)
    again = generate_synthetic(noisy_spec, seed=9)
    w_noisy = np.asarray(noisy.ground_truth["blackbox"]["regimes"][0]["weights"])
    w_clean = np.asarray(clean.ground_truth["blackbox"]["regimes"][0]["weights"])
    w_again = np.asarray(again.ground_truth["blackbox"]["regimes"][0]["weights"])
    assert not np.allclose(w_noisy, w_clean)
    assert np.array_equal(w_noisy, w_again)
    assert np.max(np.abs(w_noisy - w_clean)) < 0.5


def test_weight_shape_mismatch_rejected():
    obj = _three_regime_spec()
    obj["regimes"][0]["weights"] = [[1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(InputError):
        generate_synthetic(spec_from_dict(obj), seed=0)
