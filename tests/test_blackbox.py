from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

import numpy as np
import pytest

from sd4x.blackbox import (
    Condition,
    ExternalBlackBox,
    LinearBlackBox,
    PiecewiseLinearBlackBox,
    Regime,
    blackbox_from_dict,
    blackbox_to_dict,
    load_blackbox,
    save_blackbox,
    softmax,
)
from sd4x.errors import ExternalBlackBoxError, InputError


def test_softmax_frozen_pair():
    # softmax(ln 3, 0) = (3/(3+1), 1/(3+1))
    probs = softmax(np.array([[math.log(3.0), 0.0]]))
    assert probs[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert probs[0, 1] == pytest.approx(0.25, abs=1e-12)


def test_softmax_shift_invariance_and_overflow():
    logits = np.array([[1000.0, 1000.0, 999.0]])
    probs = softmax(logits)
    assert np.isfinite(probs).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[0, 0] == probs[0, 1]


def test_linear_blackbox_rows_sum_to_one():
    rng = np.random.default_rng(2)
    bb = LinearBlackBox(
        classes=("a", "b", "c"),
        columns=("x", "y"),
        weights=rng.normal(size=(3, 2)),
        biases=rng.normal(size=3),
    )
    X = rng.normal(size=(20, 2))
    P = bb.predict_batch(X)
    assert P.shape == (20, 3)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(P > 0)


def test_linear_blackbox_shape_validation():
    with pytest.raises(InputError):
        LinearBlackBox(
            classes=("a", "b"),
            columns=("x",),
            weights=np.zeros((3, 1)),
            biases=np.zeros(2),
        )
    bb = LinearBlackBox(
        classes=("a", "b"),
        columns=("x", "y"),
        weights=np.zeros((2, 2)),
        biases=np.zeros(2),
    )
    with pytest.raises(InputError):
        bb.predict_batch(np.zeros((4, 3)))


def _two_regime_bb():
    return PiecewiseLinearBlackBox(
        classes=("a", "b"),
        columns=("x", "y"),
        regimes=(
            Regime(
                conditions=(Condition("x", "le", 0.5),),
                weights=np.array([[1.0, 0.0], [0.0, 0.0]]),
                biases=np.zeros(2),
            ),
            Regime(
                conditions=(Condition("x", "gt", 0.5),),
                weights=np.array([[0.0, 2.0], [0.0, 0.0]]),
                biases=np.array([1.0, 0.0]),
            ),
        ),
    )


def test_piecewise_routes_rows_to_regimes():
    bb = _two_regime_bb()
    X = np.array([[0.2, 1.0], [0.9, 1.0]])
    idx = bb.regime_index(X)
    assert idx.tolist() == [0, 1]
    P = bb.predict_batch(X)
    expected0 = softmax(np.array([[0.2, 0.0]]))[0]
    expected1 = softmax(np.array([[3.0, 0.0]]))[0]
    assert np.allclose(P[0], expected0, atol=1e-12)
    assert np.allclose(P[1], expected1, atol=1e-12)


def test_piecewise_rejects_gaps_and_overlaps():
    gap = PiecewiseLinearBlackBox(
        classes=("a", "b"),
        columns=("x",),
        regimes=(
            Regime(
                conditions=(Condition("x", "le", 0.2),),
                weights=np.zeros((2, 1)),
                biases=np.zeros(2),
            ),
        ),
    )
    with pytest.raises(InputError) as err:
        gap.predict_batch(np.array([[0.7]]))
    assert "row 0" in str(err.value)

    overlap = PiecewiseLinearBlackBox(
        classes=("a", "b"),
        columns=("x",),
        regimes=(
            Regime(conditions=(), weights=np.zeros((2, 1)), biases=np.zeros(2)),
            Regime(
                conditions=(Condition("x", "gt", 0.0),),
                weights=np.zeros((2, 1)),
                biases=np.zeros(2),
            ),
        ),
    )
    with pytest.raises(InputError):
        overlap.predict_batch(np.array([[0.5]]))


def test_blackbox_json_round_trip(tmp_path):
    bb = _two_regime_bb()
    path = tmp_path / "bb.json"
    save_blackbox(str(path), bb)
    again = load_blackbox(str(path))
    assert isinstance(again, PiecewiseLinearBlackBox)
    X = np.array([[0.1, -1.0], [0.8, 0.3]])
    assert np.allclose(bb.predict_batch(X), again.predict_batch(X), atol=1e-15)

    lin = LinearBlackBox(
        classes=("a", "b"),
        columns=("x", "y"),
        weights=np.array([[0.5, -1.0], [0.0, 0.0]]),
        biases=np.array([0.1, 0.0]),
    )
    path2 = tmp_path / "lin.json"
    save_blackbox(str(path2), lin)
    again2 = load_blackbox(str(path2))
    assert np.allclose(lin.predict_batch(X), again2.predict_batch(X), atol=1e-15)


def test_linear_dict_accepts_model_aliases():
    obj = {
        "type": "linear",
        "classes": ["a", "b"],
        "columns": ["x"],
        "coefficients": [[2.0], [0.0]],
        "intercepts": [0.0, 0.0],
    }
    bb = blackbox_from_dict(obj)
    P = bb.predict_batch(np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(softmax(np.array([[2.0, 0.0]]))[0, 0])


def test_blackbox_dict_requires_type():
    with pytest.raises(InputError):
        blackbox_from_dict({"classes": ["a", "b"], "columns": ["x"]})
    with pytest.raises(InputError):
        blackbox_from_dict(
            {"type": "mystery", "classes": ["a", "b"], "columns": ["x"]}
        )


# ---------------------------------------------------------------------------
# external command protocol
# ---------------------------------------------------------------------------

_SCRIPT_OK = """\
import csv, os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "request.csv")) as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], rows[1:]
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["b", "a"])  # deliberately reordered classes
    for row in data:
        x = float(row[header.index("x")])
        pa = 1.0 / (1.0 + 2.718281828459045 ** (-x))
        w.writerow([repr(1.0 - pa), repr(pa)])
"""

_SCRIPT_TEMPLATE_SUM = """\
import csv, os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "request.csv")) as fh:
    rows = list(csv.reader(fh))
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["a", "b"])
    for _ in rows[1:]:
        w.writerow([{cells}])
"""


def _external(tmp_path, script, name="bb.py", timeout=None):
    path = tmp_path / name
    path.write_text(script)
    return ExternalBlackBox(
        classes=("a", "b"),
        columns=("x", "y"),
        command=(sys.executable, str(path)),
        timeout=timeout,
    )


def test_external_reorders_response_classes(tmp_path):
    bb = _external(tmp_path, _SCRIPT_OK)
    X = np.array([[0.0, 5.0], [2.0, -1.0]])
    P = bb.predict_batch(X)
    assert P.shape == (2, 2)
    # class "a" is the sigmoid of x, even though the response lists "b" first
    assert P[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert P[1, 0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-9)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_external_renormalizes_small_drift_with_warning(tmp_path):
    drift = _SCRIPT_TEMPLATE_SUM.format(cells='"0.6", "0.4000005"')
    bb = _external(tmp_path, drift)
    with pytest.warns(UserWarning):
        P = bb.predict_batch(np.zeros((1, 2)))
    assert P.sum() == pytest.approx(1.0, abs=1e-12)


def test_external_accepts_tiny_drift_silently(tmp_path):
    ok = _SCRIPT_TEMPLATE_SUM.format(cells='"0.6", "0.4"')
    bb = _external(tmp_path, ok)
    P = bb.predict_batch(np.zeros((1, 2)))
    assert P[0, 0] == 0.6


def test_external_rejects_bad_probabilities(tmp_path):
    negative = _SCRIPT_TEMPLATE_SUM.format(cells='"-0.001", "1.001"')
    with pytest.raises(ExternalBlackBoxError):
        _external(tmp_path, negative).predict_batch(np.zeros((1, 2)))
    way_off = _SCRIPT_TEMPLATE_SUM.format(cells='"0.3", "0.3"')
    with pytest.raises(ExternalBlackBoxError):
        _external(tmp_path, way_off).predict_batch(np.zeros((1, 2)))
    text = _SCRIPT_TEMPLATE_SUM.format(cells='"maybe", "0.5"')
    with pytest.raises(ExternalBlackBoxError):
        _external(tmp_path, text).predict_batch(np.zeros((1, 2)))
    for cells in ('"nan", "0.5"', '"0.5", "nan"', '"inf", "0.0"', '"1e999", "0.0"'):
        with pytest.raises(ExternalBlackBoxError, match="non-finite"):
            _external(tmp_path, _SCRIPT_TEMPLATE_SUM.format(cells=cells)).predict_batch(
                np.zeros((1, 2))
            )


def test_external_failure_modes(tmp_path):
    crash = "import sys; sys.exit(9)"
    with pytest.raises(ExternalBlackBoxError):
        _external(tmp_path, crash).predict_batch(np.zeros((1, 2)))
    silent = "pass"
    with pytest.raises(ExternalBlackBoxError):
        _external(tmp_path, silent).predict_batch(np.zeros((1, 2)))
    missing_cmd = ExternalBlackBox(
        classes=("a", "b"),
        columns=("x", "y"),
        command=("/nonexistent/binary",),
    )
    with pytest.raises(ExternalBlackBoxError):
        missing_cmd.predict_batch(np.zeros((1, 2)))


def test_external_rejects_wrong_shape(tmp_path):
    short = """\
import csv, os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["a", "b"])
    w.writerow(["0.5", "0.5"])
"""
    bb = _external(tmp_path, short)
    with pytest.raises(ExternalBlackBoxError):
        bb.predict_batch(np.zeros((3, 2)))

    bad_header = """\
import csv, os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "request.csv")) as fh:
    n = len(list(csv.reader(fh))) - 1
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["a", "zzz"])
    for _ in range(n):
        w.writerow(["0.5", "0.5"])
"""
    with pytest.raises(ExternalBlackBoxError):
        _external(tmp_path, bad_header).predict_batch(np.zeros((2, 2)))


def test_external_cleans_up_workdirs(tmp_path):
    import tempfile

    bb = _external(tmp_path, _SCRIPT_OK)
    tmp_root = tempfile.gettempdir()
    before = {d for d in os.listdir(tmp_root) if d.startswith("sd4x-bb-")}
    bb.predict_batch(np.zeros((2, 2)))
    after = {d for d in os.listdir(tmp_root) if d.startswith("sd4x-bb-")}
    assert after == before

    crash = _external(tmp_path, "import sys; sys.exit(3)", name="crash.py")
    with pytest.raises(ExternalBlackBoxError):
        crash.predict_batch(np.zeros((1, 2)))
    assert {d for d in os.listdir(tmp_root) if d.startswith("sd4x-bb-")} == before


_SCRIPT_COPY_REQUEST = """\
import os, shutil, sys
workdir = sys.argv[1]
shutil.copyfile(os.path.join(workdir, "request.csv"), {copy!r})
with open(os.path.join(workdir, "request.csv"), newline="") as fh:
    n = len(fh.read().splitlines()) - 1
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    fh.write("a,b\\n" + "0.5,0.5\\n" * n)
"""


def test_external_request_bytes_match_csv_repr_reference(tmp_path):
    copy = tmp_path / "request-copy.csv"
    bb = _external(tmp_path, _SCRIPT_COPY_REQUEST.format(copy=str(copy)))
    X = np.array(
        [[-0.0, 1e-300], [1e16, 3.0], [0.1, -2.5e-7], [np.float64(1) / 3, 123456789.0]]
    )
    bb.predict_batch(X)
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(bb.columns)
    for row in X:
        writer.writerow([repr(float(v)) for v in row])
    assert copy.read_bytes() == reference.getvalue().encode("utf-8")
