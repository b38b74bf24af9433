from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import tracemalloc

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


def _reference_softmax(logits):
    """softmax with a per-row max(axis=1), the formula it replaced."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _four_regime_bb(rng, p):
    conds = [
        (Condition("x", a, 0.0), Condition("y", b, 0.0))
        for a in ("le", "gt")
        for b in ("le", "gt")
    ]
    return PiecewiseLinearBlackBox(
        classes=tuple(f"c{i}" for i in range(p)),
        columns=("x", "y", "z"),
        regimes=[
            Regime(conditions=c, weights=rng.normal(size=(p, 3)), biases=rng.normal(size=p))
            for c in conds
        ],
    )


@pytest.mark.parametrize("p", [2, 3, 4, 9, 17])
def test_softmax_and_regimes_match_the_per_row_reductions_bit_for_bit(p):
    # Ties and an overflowing row included: a running maximum over the
    # columns must give max(axis=1)'s bits, and the regime index must be
    # argmax over the regime masks.
    rng = np.random.default_rng(500 + p)
    logits = rng.normal(scale=4.0, size=(2000, p))
    logits[::7, -1] = logits[::7, 0]
    logits[::11] = logits[::11, :1]
    logits[3] = 1000.0
    assert np.array_equal(softmax(logits), _reference_softmax(logits))
    bb = _four_regime_bb(rng, p)
    X = rng.normal(size=(2000, 3))
    X[::5, 0] = 0.0  # on the cut
    masks = np.stack(
        [
            np.logical_and.reduce([c.mask(X, bb.columns) for c in reg.conditions])
            for reg in bb.regimes
        ]
    )
    which = bb.regime_index(X)
    assert which.dtype == masks.argmax(axis=0).dtype
    assert np.array_equal(which, masks.argmax(axis=0))
    want = np.empty((X.shape[0], p))
    for k, reg in enumerate(bb.regimes):
        rows = which == k
        want[rows] = _reference_softmax(X[rows] @ reg.weights.T + reg.biases)
    assert np.array_equal(bb.predict_batch(X), want)


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
    with pytest.raises(
        ExternalBlackBoxError, match=r"^response shape \(1, 2\) does not match \(3, 2\)$"
    ):
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


# A black box of three classes that answers every request row with the same
# probabilities, listed in the order c, a, b.  The response has FACTOR rows per
# request row, and STDOUT characters go to stdout.
_SCRIPT_CONSTANT = """\
import os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "request.csv"), "rb") as fh:
    n = sum(1 for _ in fh) - 1
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    fh.write("c,a,b\\n" + "0.25,0.5,0.25\\n" * (n * {factor}))
sys.stdout.write("x" * {stdout})
"""


def _constant(tmp_path, factor=1, stdout=0):
    path = tmp_path / "constant.py"
    path.write_text(_SCRIPT_CONSTANT.format(factor=factor, stdout=stdout))
    return ExternalBlackBox(
        classes=("a", "b", "c"), columns=("x", "y"), command=(sys.executable, str(path))
    )


def _write(tmp_path, text):
    path = tmp_path / "response.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _traced_call(bb, X):
    """(outputs or the error raised, traced peak of the call above its start)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        try:
            out = bb.predict_batch(X)
        except ExternalBlackBoxError as exc:
            out = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_external_peak_memory_is_a_few_times_the_outputs(tmp_path):
    bb = _constant(tmp_path)
    X = np.zeros((50_000, 2))
    bb.predict_batch(X[:2])  # warm up lazy imports
    P, peak = _traced_call(bb, X)
    assert P.shape == (50_000, 3)
    assert (P == [0.5, 0.25, 0.25]).all()
    assert peak <= 4 * P.nbytes, peak / P.nbytes


def test_external_stops_reading_at_the_first_row_beyond_the_request(tmp_path):
    bb = _constant(tmp_path, factor=100)
    X = np.zeros((10_000, 2))
    err, peak = _traced_call(bb, X)
    assert isinstance(err, ExternalBlackBoxError)
    assert str(err) == "response has more than the 10000 rows requested"
    assert peak <= 4 * X.shape[0] * 3 * 8, peak


def test_external_stdout_is_not_held_in_memory(tmp_path):
    bb = _constant(tmp_path, stdout=8 << 20)
    bb.predict_batch(np.zeros((2, 2)))  # warm up lazy imports
    P, peak = _traced_call(bb, np.zeros((100, 2)))
    assert P.shape == (100, 3)
    assert peak < 1 << 20, peak


_SCRIPT_BAD_STDERR = """\
import os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    fh.write("a,b\\n0.5,0.5\\n")
sys.stderr.buffer.write(b"model says \\xff\\xfe")
sys.exit({code})
"""


def test_external_non_utf8_stderr_is_ignored_on_success(tmp_path):
    bb = _external(tmp_path, _SCRIPT_BAD_STDERR.format(code=0))
    assert bb.predict_batch(np.zeros((1, 2))).tolist() == [[0.5, 0.5]]


def test_external_non_utf8_stderr_is_quoted_on_failure(tmp_path):
    bb = _external(tmp_path, _SCRIPT_BAD_STDERR.format(code=4))
    with pytest.raises(ExternalBlackBoxError) as err:
        bb.predict_batch(np.zeros((1, 2)))
    assert str(err.value) == "external black box exited with 4: model says \ufffd\ufffd"


def test_external_quotes_the_first_500_characters_of_stderr(tmp_path):
    noisy = "import sys; sys.stderr.write('  ' + 'e' * 100_000); sys.exit(1)"
    with pytest.raises(ExternalBlackBoxError) as err:
        _external(tmp_path, noisy).predict_batch(np.zeros((1, 2)))
    assert str(err.value) == "external black box exited with 1: " + "e" * 500


def test_external_rejects_a_response_that_is_not_utf8(tmp_path):
    script = """\
import os, sys
with open(os.path.join(sys.argv[1], "response.csv"), "wb") as fh:
    fh.write(b"a,b\\n0.5,0.5\\xff\\n")
"""
    with pytest.raises(ExternalBlackBoxError, match="unreadable response.csv"):
        _external(tmp_path, script).predict_batch(np.zeros((1, 2)))


def test_external_response_checks_keep_their_messages(tmp_path):
    bb = _external(tmp_path, "pass")
    cases = [
        ("", "response.csv is empty"),
        ("a,zzz\n", "response header ['a', 'zzz'] does not name classes ['a', 'b']"),
        ("a,b\n0.5,0.5,0.0\n", "response row has 3 cells, expected 2"),
        ("b,a\n0.5,maybe\n", "non-numeric probability in response: "
         "could not convert string to float: 'maybe'"),
        ("a,b\n\n0.5,0.5\n\n", None),
    ]
    for text, message in cases:
        path = _write(tmp_path, text)
        if message is None:
            assert bb._read_response(path, 1).tolist() == [[0.5, 0.5]]
            continue
        with pytest.raises(ExternalBlackBoxError) as err:
            bb._read_response(path, 1)
        assert str(err.value) == message


def test_external_reads_a_single_class_response(tmp_path):
    bb = ExternalBlackBox(classes=("a",), columns=("x",), command=("true",))
    path = _write(tmp_path, "z,a\n0.0,1.0\n")
    assert bb._read_response(path, 1).tolist() == [[1.0]]
