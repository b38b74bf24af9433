from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from sd4x import cli, neighborhood, splitter
from sd4x.blackbox import load_blackbox
from sd4x.cli import main
from sd4x.dataset import encode, load_dataset
from sd4x.errors import InputError
from sd4x.neighborhood import build, label, load_cache
from sd4x.patterns import pattern_to_conditions, render
from sd4x.synth import generate_synthetic, spec_from_dict

from conftest import TOY_CSV, TOY_SCHEMA, row_outputs

_SPEC = {
    "attributes": [
        {"name": "x0", "kind": "numeric"},
        {"name": "x1", "kind": "numeric"},
        {"name": "flag", "kind": "boolean"},
    ],
    "classes": ["pos", "neg"],
    "n": 40,
    "regimes": [
        {
            "conditions": [{"column": "x0", "op": "le", "value": 0.5}],
            "weights": [[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "biases": [0.0, 0.0],
        },
        {
            "conditions": [{"column": "x0", "op": "gt", "value": 0.5}],
            "weights": [[0.0, -2.0, 1.0], [0.0, 0.0, 0.0]],
            "biases": [0.5, 0.0],
        },
    ],
}


@pytest.fixture()
def gen_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_SPEC))
    out = tmp_path / "gen"
    code = main(["synth", "--spec", str(spec_path), "--out", str(out), "--seed", "11"])
    assert code == 0
    return out


def _explain_args(gen_dir, out, extra=()):
    return [
        "explain",
        "--data",
        str(gen_dir / "data.csv"),
        "--schema",
        str(gen_dir / "schema.json"),
        "--blackbox",
        str(gen_dir / "blackbox.json"),
        "--k",
        "3",
        "--z",
        "10",
        "--n-synth",
        "25",
        "--lambda",
        "0.5",
        "--seed",
        "2",
        "--out",
        str(out),
        *extra,
    ]


def _eval_args(gen_dir, partition, out_dir):
    return [
        "eval",
        "--partition",
        str(partition),
        "--data",
        str(gen_dir / "data.csv"),
        "--schema",
        str(gen_dir / "schema.json"),
        "--blackbox",
        str(gen_dir / "blackbox.json"),
        "--out-dir",
        str(out_dir),
    ]


def test_synth_writes_expected_files(gen_dir):
    for name in ("data.csv", "schema.json", "blackbox.json", "ground_truth.json"):
        assert (gen_dir / name).exists()
    header = (gen_dir / "data.csv").read_text().splitlines()[0]
    assert header == "x0,x1,flag,class"


def test_explain_then_eval_round_trip(gen_dir, tmp_path):
    out = tmp_path / "partition.json"
    assert main(_explain_args(gen_dir, out)) == 0
    dump = json.loads(out.read_text())
    assert dump["config"]["lambda"] == 0.5
    assert 1 <= len(dump["subgroups"]) <= 3
    report_dir = tmp_path / "report"
    code = main(
        [
            "eval",
            "--partition",
            str(out),
            "--data",
            str(gen_dir / "data.csv"),
            "--schema",
            str(gen_dir / "schema.json"),
            "--blackbox",
            str(gen_dir / "blackbox.json"),
            "--out-dir",
            str(report_dir),
        ]
    )
    assert code == 0
    report = json.loads((report_dir / "report.json").read_text())
    assert set(report["mse"]) == {"splitsd4x", "global_wb", "local_wb"}
    assert (report_dir / "report.md").exists()
    assert (report_dir / "curve.csv").exists() or len(dump["trace"]) < 2


def test_explain_is_byte_deterministic(gen_dir, tmp_path):
    paths = [tmp_path / f"p{i}.json" for i in range(3)]
    threads = ["1", "4", "1"]
    for path, t in zip(paths, threads):
        code = main(_explain_args(gen_dir, path, extra=("--threads", t)))
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_explain_curve_output(gen_dir, tmp_path):
    out = tmp_path / "partition.json"
    curve = tmp_path / "curve.csv"
    assert main(_explain_args(gen_dir, out, extra=("--curve", str(curve)))) == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "K,loss"
    assert len(lines) >= 2


def test_explain_with_cache_dir_hits_cache(gen_dir, tmp_path):
    cache = tmp_path / "cache"
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(_explain_args(gen_dir, out1, extra=("--cache-dir", str(cache)))) == 0
    entries = os.listdir(cache)
    assert len(entries) == 1
    assert main(_explain_args(gen_dir, out2, extra=("--cache-dir", str(cache)))) == 0
    assert os.listdir(cache) == entries
    assert out1.read_bytes() == out2.read_bytes()


def test_explain_recomputes_over_a_corrupt_cache_file(gen_dir, tmp_path):
    cache = tmp_path / "cache"
    first = tmp_path / "first.json"
    assert main(_explain_args(gen_dir, first, extra=("--cache-dir", str(cache)))) == 0
    (entry,) = os.listdir(cache)
    path = cache / entry
    good = load_cache(str(path))
    blob = path.read_bytes()
    G, C, yy = good.grams
    meta = np.array([good.z, good.n_synth, good.seed])

    def wrong_shapes(fh):
        # consistent in itself, so only the comparison with the run rejects it
        G = np.tile(np.eye(2), (3, 1, 1))
        G[:, 1, 1] = 26.0
        np.savez(
            fh,
            G=G,
            C=np.zeros((3, 2, 7)),
            yy=np.zeros(3),
            outputs=np.zeros((3, 7)),
            meta=np.array([10, 25, 2], dtype=np.int64),
        )

    def other_settings(fh):
        np.savez(fh, G=G, C=C, yy=yy, outputs=good.object_outputs, meta=meta + [0, 0, 1])

    def nan_output(fh):
        outputs = good.object_outputs.copy()
        outputs[1, 0] = np.nan
        np.savez(fh, G=G, C=C, yy=yy, outputs=outputs, meta=meta)

    for spoil in (
        lambda fh: fh.write(blob[: len(blob) // 2]),
        lambda fh: fh.write(blob[:10]),
        wrong_shapes,
        other_settings,
        nan_output,
    ):
        with open(path, "wb") as fh:
            spoil(fh)
        out = tmp_path / "again.json"
        assert main(_explain_args(gen_dir, out, extra=("--cache-dir", str(cache)))) == 0
        assert out.read_bytes() == first.read_bytes()
        assert os.listdir(cache) == [entry]
        rewritten = load_cache(str(path))
        assert rewritten is not None
        for got, want in zip(rewritten.grams, good.grams):
            assert np.array_equal(got, want)
        assert np.array_equal(rewritten.object_outputs, good.object_outputs)


def test_explain_rebuilds_a_row_format_cache_file_once(gen_dir, tmp_path):
    plain = tmp_path / "plain.json"
    assert main(_explain_args(gen_dir, plain)) == 0
    cache = tmp_path / "cache"
    first = tmp_path / "first.json"
    assert main(_explain_args(gen_dir, first, extra=("--cache-dir", str(cache)))) == 0
    (entry,) = os.listdir(cache)
    path = cache / entry
    # The file an older sd4x wrote under the same key: every row and its outputs.
    enc = encode(load_dataset(str(gen_dir / "data.csv"), str(gen_dir / "schema.json")))
    bb = load_blackbox(str(gen_dir / "blackbox.json"))
    ns = label(build(enc, z=10, n_synth=25, seed=2), bb)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            samples=ns.samples,
            bb_outputs=row_outputs(ns, bb),
            meta=np.array([10, 25, 2], dtype=np.int64),
        )
    assert load_cache(str(path)) is None
    again = tmp_path / "again.json"
    assert main(_explain_args(gen_dir, again, extra=("--cache-dir", str(cache)))) == 0
    assert again.read_bytes() == first.read_bytes() == plain.read_bytes()
    assert os.listdir(cache) == [entry]
    with np.load(path) as data:
        assert sorted(data.files) == ["C", "G", "meta", "outputs", "yy"]
    assert np.array_equal(load_cache(str(path)).object_outputs, ns.object_outputs)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_eval_on_a_warm_cache_reads_no_rows(gen_dir, tmp_path, monkeypatch, threads):
    partition = tmp_path / "partition.json"
    assert main(_explain_args(gen_dir, partition)) == 0
    cache = tmp_path / "cache"

    def eval_args(out_dir):
        args = _eval_args(gen_dir, partition, out_dir)
        return args + ["--cache-dir", str(cache), "--threads", threads]

    assert main(eval_args(tmp_path / "cold")) == 0
    assert len(os.listdir(cache)) == 1

    def no_rows(*args, **kwargs):
        raise AssertionError("a cache hit reads neighborhood rows")

    monkeypatch.setattr(cli, "build", no_rows)
    monkeypatch.setattr(cli, "label", no_rows)
    monkeypatch.setattr(neighborhood, "_build_range", no_rows)
    assert main(eval_args(tmp_path / "warm")) == 0
    cold = (tmp_path / "cold" / "report.json").read_bytes()
    assert (tmp_path / "warm" / "report.json").read_bytes() == cold
    monkeypatch.undo()
    assert main(_eval_args(gen_dir, partition, tmp_path / "uncached")) == 0
    assert (tmp_path / "uncached" / "report.json").read_bytes() == cold


def test_explain_rejects_a_schema_with_repeated_encoded_columns(tmp_path, capsys):
    # numeric "color=red" and nominal "color" with category "red" both
    # encode to a column named "color=red"
    schema = {
        "attributes": [
            {"name": "color=red", "kind": "numeric"},
            {"name": "color", "kind": "nominal", "categories": ["red", "blue"]},
        ],
        "classes": ["c0", "c1"],
    }
    bb = {
        "type": "linear",
        "classes": ["c0", "c1"],
        "columns": ["color=red", "color=red", "color=blue"],
        "weights": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "biases": [0.0, 0.0],
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "bb.json").write_text(json.dumps(bb))
    (tmp_path / "data.csv").write_text(
        "color=red,color,class\n1.5,red,c0\n0.5,blue,c1\n2.5,blue,c0\n"
    )
    args = [
        "explain", "--data", str(tmp_path / "data.csv"),
        "--schema", str(tmp_path / "schema.json"),
        "--blackbox", str(tmp_path / "bb.json"),
        "--k", "1", "--n-synth", "5", "--out", str(tmp_path / "p.json"),
    ]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'color=red'" in err
    assert err.count("\n") == 1


def _overlap(dump, enc):
    dump["subgroups"][0]["members"].append(dump["subgroups"][1]["members"][0])


def _over_budget(dump, enc):
    dump["config"]["k"] = 1


def _trace_threshold(dump, enc):
    dump["trace"][0]["threshold"] += 0.01


def _condition_value(dump, enc):
    dump["subgroups"][0]["conditions"][0]["value"] += 0.01


def _pattern_string(dump, enc):
    dump["subgroups"][0]["pattern"] += " ∧ flag = True"


def _inactive_subgroup(dump, enc):
    dump["trace"][-1]["subgroup"] = 0  # split by the first entry


def _unknown_column(dump, enc):
    dump["trace"][0]["column"] = "x9"


def _empty_child(dump, enc):
    # the second split of x0 > t0 at a threshold below t0 leaves its left child empty
    first, second = dump["trace"][:2]
    assert first["column"] == second["column"] and second["subgroup"] == 2
    second["threshold"] = first["threshold"] - 0.01


def _iteration(dump, enc):
    dump["trace"][-1]["iter"] = 7


def _last_loss(dump, enc):
    dump["trace"][-1]["loss_after"] /= 2


def _threshold_everywhere(dump, enc):
    """Move one object across the first split in the trace, the patterns and the
    conditions alike: only the extents then disagree with the members."""
    first = dump["trace"][0]
    values = enc.values[:, enc.column_names.index(first["column"])]
    first["threshold"] = float(np.nextafter(values[values <= first["threshold"]].max(), -np.inf))
    trace = [splitter.TraceEntry(*(t[k] for k, _ in cli._TRACE_FIELDS)) for t in dump["trace"]]
    patterns = splitter.trace_patterns(trace, enc)
    for sd in dump["subgroups"]:
        sd["pattern"] = render(patterns[sd["id"]], enc.attributes)
        sd["conditions"] = pattern_to_conditions(patterns[sd["id"]], enc.attributes)


@pytest.mark.parametrize(
    "tamper, fragment",
    [
        (_overlap, "disjointly cover"),
        (_over_budget, "exceed the budget"),
        (_trace_threshold, "subgroup 1: pattern is not"),
        (_condition_value, "subgroup 1: conditions are not"),
        (_pattern_string, "subgroup 1: pattern is not"),
        (_inactive_subgroup, "trace[1]: subgroup 0 is not active"),
        (_unknown_column, "trace[0]: unknown column 'x9'"),
        (_empty_child, "trace[1]: empty interval"),
        (_iteration, "trace[1]: iter 7"),
        (_last_loss, "last loss"),
        (_threshold_everywhere, "pattern extent does not match"),
    ],
    ids=[
        "overlap", "budget", "trace-threshold", "condition-value", "pattern-string",
        "inactive-subgroup", "unknown-column", "empty-child", "iter", "last-loss",
        "threshold-everywhere",
    ],
)
def test_eval_rejects_tampered_members(gen_dir, tmp_path, monkeypatch, capsys, tamper, fragment):
    out = tmp_path / "partition.json"
    assert main(_explain_args(gen_dir, out)) == 0
    dump = json.loads(out.read_text())
    assert len(dump["subgroups"]) == 3 and len(dump["trace"]) == 2
    enc = encode(load_dataset(str(gen_dir / "data.csv"), str(gen_dir / "schema.json")))
    tamper(dump, enc)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(dump))

    def no_labels(*args, **kwargs):
        raise AssertionError("a dump that fails a check is labeled")

    # Every check but the losses' runs before any neighborhood is built or labeled.
    monkeypatch.setattr(cli, "build", no_labels)
    monkeypatch.setattr(cli, "label", no_labels)
    capsys.readouterr()
    assert main(_eval_args(gen_dir, tampered, tmp_path / "r")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err, err


def _swap_losses(dump):
    """Swap the losses of the first two subgroups: their sum is unchanged."""
    a, b = dump["subgroups"][:2]
    assert a["loss"] != b["loss"]
    a["loss"], b["loss"] = b["loss"], a["loss"]
    return a["id"]


def _shift_loss(dump):
    sd = dump["subgroups"][1]
    sd["loss"] *= 1.01
    return sd["id"]


@pytest.mark.parametrize("tamper", [_swap_losses, _shift_loss], ids=["swapped", "shifted"])
def test_eval_rejects_a_wrong_subgroup_loss_and_names_the_subgroup(
    gen_dir, tmp_path, capsys, tamper
):
    out = tmp_path / "partition.json"
    assert main(_explain_args(gen_dir, out)) == 0
    dump = json.loads(out.read_text())
    assert len(dump["subgroups"]) >= 2
    sid = tamper(dump)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(dump))
    capsys.readouterr()
    assert main(_eval_args(gen_dir, tampered, tmp_path / "r")) == 1
    assert f"subgroup {sid}:" in capsys.readouterr().err


_DROP = object()


@pytest.mark.parametrize(
    "path, value",
    [
        (("subgroups", 0, "model"), _DROP),
        (("trace", 0, "loss_after"), _DROP),
        (("subgroups", 0, "members"), "abc"),
        (("config", "z"), "x"),
        (("subgroups", 0, "model", "coefficients"), [[0.5]]),
        (("subgroups", 0, "members"), [1.5]),
        (("trace",), _DROP),
    ],
    ids=[
        "no-model",
        "no-loss-after",
        "members-str",
        "z-str",
        "coefficients-1x1",
        "members-float",
        "no-trace",
    ],
)
def test_eval_rejects_malformed_partition_file(gen_dir, tmp_path, capsys, path, value):
    out = tmp_path / "partition.json"
    assert main(_explain_args(gen_dir, out)) == 0
    dump = json.loads(out.read_text())
    assert dump["trace"]
    *parents, last = path
    target = dump
    for key in parents:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dump))
    capsys.readouterr()
    assert main(_eval_args(gen_dir, bad, tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: partition file: ")
    assert err.count("\n") == 1


def test_eval_curve_matches_explain_curve(gen_dir, tmp_path):
    out = tmp_path / "partition.json"
    curve = tmp_path / "curve.csv"
    assert main(_explain_args(gen_dir, out, extra=("--curve", str(curve)))) == 0
    assert len(json.loads(out.read_text())["trace"]) >= 1
    assert main(_eval_args(gen_dir, out, tmp_path / "r")) == 0
    assert (tmp_path / "r" / "curve.csv").read_bytes() == curve.read_bytes()


def test_eval_rejects_stale_data_hash(gen_dir, tmp_path):
    out = tmp_path / "partition.json"
    assert main(_explain_args(gen_dir, out)) == 0
    data = (gen_dir / "data.csv").read_text().splitlines()
    cells = data[1].split(",")
    cells[0] = "0.123456"
    data[1] = ",".join(cells)
    altered = tmp_path / "altered.csv"
    altered.write_text("\n".join(data) + "\n")
    code = main(
        [
            "eval",
            "--partition",
            str(out),
            "--data",
            str(altered),
            "--schema",
            str(gen_dir / "schema.json"),
            "--blackbox",
            str(gen_dir / "blackbox.json"),
            "--out-dir",
            str(tmp_path / "r"),
        ]
    )
    assert code == 2


def test_exit_codes_for_bad_input(gen_dir, tmp_path):
    missing = main(
        [
            "explain",
            "--data",
            str(gen_dir / "data.csv"),
            "--schema",
            str(gen_dir / "schema.json"),
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert missing == 2  # neither --blackbox nor --blackbox-cmd
    both = main(
        _explain_args(
            gen_dir,
            tmp_path / "y.json",
            extra=("--blackbox-cmd", "echo hi"),
        )
    )
    assert both == 2
    nofile = main(
        [
            "explain",
            "--data",
            str(tmp_path / "missing.csv"),
            "--schema",
            str(gen_dir / "schema.json"),
            "--blackbox",
            str(gen_dir / "blackbox.json"),
            "--out",
            str(tmp_path / "z.json"),
        ]
    )
    assert nofile == 2
    for bad in ({"ranges": {"x0": ["a", 1]}}, {"noise_scale": "x"}):
        spec = tmp_path / "bad_spec.json"
        spec.write_text(json.dumps(dict(_SPEC, **bad)))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 2


def test_external_blackbox_cmd_and_failure_exit_code(gen_dir, tmp_path):
    script = tmp_path / "bb.py"
    script.write_text(
        """\
import csv, math, os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "request.csv")) as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], rows[1:]
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["pos", "neg"])
    for row in data:
        x0 = float(row[header.index("x0")])
        p = 1.0 / (1.0 + math.exp(-4.0 * (x0 - 0.5)))
        w.writerow([repr(p), repr(1.0 - p)])
"""
    )
    out = tmp_path / "ext.json"
    code = main(
        [
            "explain",
            "--data",
            str(gen_dir / "data.csv"),
            "--schema",
            str(gen_dir / "schema.json"),
            "--blackbox-cmd",
            f"{sys.executable} {script}",
            "--k",
            "2",
            "--n-synth",
            "15",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()

    crash = tmp_path / "crash.py"
    crash.write_text("import sys; sys.exit(5)")
    code = main(
        [
            "explain",
            "--data",
            str(gen_dir / "data.csv"),
            "--schema",
            str(gen_dir / "schema.json"),
            "--blackbox-cmd",
            f"{sys.executable} {crash}",
            "--k",
            "2",
            "--n-synth",
            "5",
            "--out",
            str(tmp_path / "never.json"),
        ]
    )
    assert code == 3


_SCRIPT_BAD_STDERR = """\
import csv, os, sys
workdir = sys.argv[1]
with open(os.path.join(workdir, "request.csv")) as fh:
    n = len(list(csv.reader(fh))) - 1
with open(os.path.join(workdir, "response.csv"), "w", newline="") as fh:
    fh.write("pos,neg\\n" + "0.25,0.75\\n" * n)
sys.stderr.buffer.write(b"scored \\xff\\xfe rows")
sys.exit({code})
"""


@pytest.mark.parametrize("code", [0, 4])
def test_external_blackbox_with_non_utf8_stderr(gen_dir, tmp_path, capsys, code):
    script = tmp_path / "bb.py"
    script.write_text(_SCRIPT_BAD_STDERR.format(code=code))
    out = tmp_path / "ext.json"
    argv = [
        "explain",
        "--data",
        str(gen_dir / "data.csv"),
        "--schema",
        str(gen_dir / "schema.json"),
        "--blackbox-cmd",
        f"{sys.executable} {script}",
        "--k",
        "2",
        "--n-synth",
        "5",
        "--out",
        str(out),
    ]
    capsys.readouterr()
    if code == 0:
        assert main(argv) == 0
        assert out.exists()
        return
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: external black box exited with 4: scored \ufffd\ufffd rows\n"
    )
    assert not out.exists()


def test_config_file_defaults_and_flag_override(gen_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 2, "n-synth": 25, "lambda": 0.5, "seed": 2, "z": 10}))
    out_cfg = tmp_path / "from_config.json"
    code = main(
        [
            "explain",
            "--data",
            str(gen_dir / "data.csv"),
            "--schema",
            str(gen_dir / "schema.json"),
            "--blackbox",
            str(gen_dir / "blackbox.json"),
            "--config",
            str(config),
            "--out",
            str(out_cfg),
        ]
    )
    assert code == 0
    dump = json.loads(out_cfg.read_text())
    assert dump["config"]["k"] == 2
    assert dump["config"]["lambda"] == 0.5

    out_flag = tmp_path / "flag_wins.json"
    code = main(
        [
            "explain",
            "--data",
            str(gen_dir / "data.csv"),
            "--schema",
            str(gen_dir / "schema.json"),
            "--blackbox",
            str(gen_dir / "blackbox.json"),
            "--config",
            str(config),
            "--k",
            "3",
            "--out",
            str(out_flag),
        ]
    )
    assert code == 0
    assert json.loads(out_flag.read_text())["config"]["k"] == 3


def _no_weights(bb):
    del bb["regimes"][0]["weights"]
    return bb


def _text_condition_value(bb):
    bb["regimes"][0]["conditions"][0]["value"] = "abc"
    return bb


def _ragged_linear_weights(bb):
    return {
        "type": "linear",
        "classes": bb["classes"],
        "columns": bb["columns"],
        "weights": [[1.0, 0.0, 0.0], [1.0]],
        "biases": [0.0, 0.0],
    }


def _non_object_regime(bb):
    bb["regimes"] = [1]
    return bb


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (_no_weights, "regime #0: missing 'weights'"),
        (_text_condition_value, "regime #0: "),
        (_ragged_linear_weights, "bad black-box description: "),
        (_non_object_regime, "regime #0 is not a JSON object"),
    ],
    ids=["no-weights", "value-str", "ragged-linear", "regime-int"],
)
def test_explain_rejects_malformed_blackbox_file(gen_dir, tmp_path, capsys, mangle, fragment):
    bb = mangle(json.loads((gen_dir / "blackbox.json").read_text()))
    bad = tmp_path / "bad_bb.json"
    bad.write_text(json.dumps(bb))
    args = _explain_args(gen_dir, tmp_path / "p.json")
    args[args.index("--blackbox") + 1] = str(bad)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1


_TYPED_SCHEMA = {
    "attributes": [
        {"name": "7", "kind": "numeric"},
        {"name": "c", "kind": "nominal", "categories": ["a", "b"]},
    ],
    "classes": ["0", "1"],
}
_TYPED_BB = {
    "type": "linear",
    "classes": ["0", "1"],
    "columns": ["7", "c=a", "c=b"],
    "weights": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "biases": [0.0, 0.0],
}


@pytest.mark.parametrize(
    "file, edits",
    [
        ("schema", [(("attributes", 1, "categories"), "ab")]),
        ("schema", [(("attributes", 0, "name"), 7)]),
        ("schema", [(("classes",), [0, 1])]),
        ("schema", [(("attributes", 0, "kind"), ["numeric"])]),
        ("blackbox", [(("weights",), [["1", "0", "0"], ["0", "1", "0"]])]),
        ("blackbox", [(("classes",), [0, 1])]),
        ("spec", [(("n",), True)]),
        ("spec", [(("regimes", k, "conditions", 0, "value"), "0.5") for k in (0, 1)]),
        ("spec", [(("regimes", k, "conditions", 0, "value"), True) for k in (0, 1)]),
        ("spec", [(("regimes", 0, "weights"), [["3", "0", "0"], ["0", "0", "0"]])]),
    ],
    ids=[
        "categories-str", "name-int", "classes-int", "kind-list", "linear-weights-str",
        "bb-classes-int", "n-bool", "value-str", "value-bool", "regime-weights-str",
    ],
)
def test_outside_json_values_are_checked_not_cast(tmp_path, capsys, file, edits):
    # each edit used to be cast (str(), float(), a bool taken as an int)
    # and the run went on; by the type rule it is bad input
    files = json.loads(json.dumps({"schema": _TYPED_SCHEMA, "blackbox": _TYPED_BB, "spec": _SPEC}))
    for path, value in edits:
        obj = files[file]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    if file == "spec":
        args = ["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "g")]
    else:
        data = tmp_path / "data.csv"
        data.write_text("7,c,class\n0.5,a,0\n1.5,b,1\n-0.5,b,0\n2.5,a,1\n")
        args = [
            "explain", "--data", str(data),
            "--schema", str(tmp_path / "schema.json"),
            "--blackbox", str(tmp_path / "blackbox.json"),
            "--k", "1", "--n-synth", "5", "--out", str(tmp_path / "p.json"),
        ]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _linear_nan_weight(bb):
    return {
        "type": "linear",
        "classes": bb["classes"],
        "columns": bb["columns"],
        "weights": [[1.0, float("nan"), 0.0], [0.0, 0.0, 0.0]],
        "biases": [0.0, 0.0],
    }


def _piecewise_inf_bias(bb):
    bb["regimes"][1]["biases"][0] = float("inf")
    return bb


def _nan_condition_value(bb):
    bb["regimes"][0]["conditions"][0]["value"] = float("nan")
    return bb


def _spec_nan_weight(spec):
    spec = json.loads(json.dumps(spec))
    spec["regimes"][0]["weights"][0][1] = float("nan")
    return spec


@pytest.mark.parametrize(
    "mangle",
    [_linear_nan_weight, _piecewise_inf_bias, _nan_condition_value, _spec_nan_weight],
    ids=["linear-nan-weight", "piecewise-inf-bias", "nan-condition", "synth-nan-weight"],
)
def test_non_finite_blackbox_parameters_exit_2(gen_dir, tmp_path, capsys, mangle):
    bad = tmp_path / "bad.json"
    if mangle is _spec_nan_weight:
        bad.write_text(json.dumps(mangle(_SPEC)))  # json writes NaN
        with pytest.raises(InputError):
            generate_synthetic(spec_from_dict(json.loads(bad.read_text())), seed=11)
        args = ["synth", "--spec", str(bad), "--out", str(tmp_path / "g")]
    else:
        bad.write_text(json.dumps(mangle(json.loads((gen_dir / "blackbox.json").read_text()))))
        with pytest.raises(InputError):
            load_blackbox(str(bad))
        args = _explain_args(gen_dir, tmp_path / "p.json")
        args[args.index("--blackbox") + 1] = str(bad)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "p.json").exists() and not (tmp_path / "g").exists()


@pytest.mark.parametrize(
    "command, flags, config, key",
    [
        ("explain", ("--seed", "-1"), None, "seed"),
        ("synth", ("--seed", "-1"), None, "seed"),
        ("explain", (), {"k": "abc"}, "k"),
        ("explain", (), {"z": 2.5}, "z"),
        ("explain", (), {"lambda": "x"}, "lambda"),
        ("explain", (), {"lambda": True}, "lambda"),
        ("explain", (), {"threads": "x"}, "threads"),
        ("synth", (), {"seed": "x"}, "seed"),
        ("featurize", (), {"top-n": "abc"}, "top-n"),
        ("explain", (), {"lamda": -5, "K": 3}, "lamda"),
        ("synth", (), {"seed": 1, "n_synth": 5}, "n_synth"),
    ],
    ids=[
        "explain-seed-negative",
        "synth-seed-negative",
        "k-str",
        "z-float",
        "lambda-str",
        "lambda-bool",
        "threads-str",
        "synth-seed-str",
        "top-n-str",
        "explain-unknown-keys",
        "synth-unknown-key",
    ],
)
def test_bad_seed_or_config_value_exits_2(gen_dir, tmp_path, capsys, command, flags, config, key):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SPEC))
    data, schema = str(gen_dir / "data.csv"), str(gen_dir / "schema.json")
    args = {
        "explain": [
            "explain", "--data", data, "--schema", schema,
            "--blackbox", str(gen_dir / "blackbox.json"),
            "--n-synth", "5", "--out", str(tmp_path / "p.json"),
        ],
        "synth": ["synth", "--spec", str(spec), "--out", str(tmp_path / "gen2")],
        "featurize": [
            "featurize", "--data", data, "--schema", schema, "--field", "x0",
            "--out-data", str(tmp_path / "o.csv"),
            "--out-schema", str(tmp_path / "o.json"),
            "--out-vocab", str(tmp_path / "v.json"),
        ],
    }[command] + list(flags)
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert err.count("\n") == 1


def test_explain_passes_threads_to_the_run(gen_dir, tmp_path, monkeypatch):
    from sd4x import splitter

    seen = []
    run = splitter.run

    def recorded(*args, **kwargs):
        seen.append(kwargs.get("threads"))
        return run(*args, **kwargs)

    monkeypatch.setattr(splitter, "run", recorded)
    assert main(_explain_args(gen_dir, tmp_path / "p.json", extra=("--threads", "3"))) == 0
    assert seen == [3]


def _lambda_flag(value):
    def setup(gen_dir, tmp_path):
        return _explain_args(gen_dir, tmp_path / "p.json", extra=("--lambda", value))

    return setup


def _lambda_config(gen_dir, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lambda": float("nan")}))  # json writes NaN
    args = _explain_args(gen_dir, tmp_path / "p.json") + ["--config", str(cfg)]
    at = args.index("--lambda")
    return args[:at] + args[at + 2 :]  # a flag would override the config


def _dumped_lambda(value):
    def setup(gen_dir, tmp_path):
        partition = tmp_path / "p.json"
        assert main(_explain_args(gen_dir, partition)) == 0
        dump = json.loads(partition.read_text())
        dump["config"]["lambda"] = value
        partition.write_text(json.dumps(dump))
        return _eval_args(gen_dir, partition, tmp_path / "r")

    return setup


@pytest.mark.parametrize(
    "setup",
    [
        _lambda_flag("nan"),
        _lambda_flag("inf"),
        _lambda_config,
        _dumped_lambda(float("nan")),
        _dumped_lambda(-1.0),
    ],
    ids=["flag-nan", "flag-inf", "config-nan", "dump-nan", "dump-negative"],
)
def test_non_finite_or_negative_lambda_exits_2(gen_dir, tmp_path, capsys, setup):
    args = setup(gen_dir, tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lambda" in err
    assert err.count("\n") == 1


def test_featurize_expands_text_column(tmp_path):
    data = tmp_path / "tickets.csv"
    data.write_text(
        "severity,message,class\n"
        "1.0,disk full,hw\n"
        "2.0,swap full,hw\n"
        "0.5,login failed,sw\n"
    )
    schema = tmp_path / "tickets_schema.json"
    schema.write_text(
        json.dumps(
            {
                "attributes": [{"name": "severity", "kind": "numeric"}],
                "classes": ["hw", "sw"],
            }
        )
    )
    out_data = tmp_path / "out.csv"
    out_schema = tmp_path / "out_schema.json"
    out_vocab = tmp_path / "vocab.json"
    code = main(
        [
            "featurize",
            "--data",
            str(data),
            "--schema",
            str(schema),
            "--field",
            "message",
            "--top-n",
            "4",
            "--out-data",
            str(out_data),
            "--out-schema",
            str(out_schema),
            "--out-vocab",
            str(out_vocab),
        ]
    )
    assert code == 0
    vocab = json.loads(out_vocab.read_text())
    assert vocab["field"] == "message"
    assert len(vocab["terms"]) == 4
    schema_obj = json.loads(out_schema.read_text())
    derived = [a for a in schema_obj["attributes"] if a.get("text_field") == "message"]
    assert len(derived) == 4
    assert all(a["name"].startswith("message_") for a in derived)
    header = out_data.read_text().splitlines()[0]
    assert header.startswith("severity,message_")
    assert header.endswith(",class")

    from sd4x.dataset import load_dataset

    ds = load_dataset(str(out_data), str(out_schema))
    assert ds.n == 3
    assert ds.labels == ["hw", "hw", "sw"]


def test_featurize_rejects_bad_requests(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("severity,message\n1.0,hello\n")
    schema = tmp_path / "s.json"
    schema.write_text(
        json.dumps(
            {
                "attributes": [{"name": "severity", "kind": "numeric"}],
                "classes": ["a", "b"],
            }
        )
    )
    args = [
        "featurize",
        "--data",
        str(data),
        "--schema",
        str(schema),
        "--out-data",
        str(tmp_path / "o.csv"),
        "--out-schema",
        str(tmp_path / "os.json"),
        "--out-vocab",
        str(tmp_path / "ov.json"),
    ]
    assert main(args + ["--field", "nope"]) == 2
    assert main(args + ["--field", "message", "--top-n", "0"]) == 2

    collision_schema = tmp_path / "cs.json"
    collision_schema.write_text(
        json.dumps(
            {
                "attributes": [
                    {"name": "severity", "kind": "numeric"},
                    {"name": "message_hello", "kind": "numeric"},
                ],
                "classes": ["a", "b"],
            }
        )
    )
    cdata = tmp_path / "cd.csv"
    cdata.write_text("severity,message_hello,message\n1.0,0.0,hello\n")
    assert (
        main(
            [
                "featurize",
                "--data",
                str(cdata),
                "--schema",
                str(collision_schema),
                "--field",
                "message",
                "--top-n",
                "3",
                "--out-data",
                str(tmp_path / "o2.csv"),
                "--out-schema",
                str(tmp_path / "os2.json"),
                "--out-vocab",
                str(tmp_path / "ov2.json"),
            ]
        )
        == 2
    )


_TICKETS_SCHEMA = {
    "attributes": [{"name": "severity", "kind": "numeric"}],
    "classes": ["hw", "sw"],
}


def _featurize_args(tmp_path, data, schema):
    return [
        "featurize",
        "--data",
        str(data),
        "--schema",
        str(schema),
        "--field",
        "message",
        "--top-n",
        "3",
        "--out-data",
        str(tmp_path / "out.csv"),
        "--out-schema",
        str(tmp_path / "out_schema.json"),
        "--out-vocab",
        str(tmp_path / "vocab.json"),
    ]


def test_featurize_skips_blank_lines_like_load_dataset(tmp_path):
    data = tmp_path / "tickets.csv"
    data.write_text("severity,message,class\n1.0,disk full,hw\n\n0.5,login failed,sw\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(_TICKETS_SCHEMA))
    assert main(_featurize_args(tmp_path, data, schema)) == 0

    from sd4x.dataset import load_dataset

    ds = load_dataset(str(tmp_path / "out.csv"), str(tmp_path / "out_schema.json"))
    assert ds.labels == ["hw", "sw"]
    assert [row[0] for row in ds.rows] == [1.0, 0.5]


def test_featurize_numbers_bad_rows_like_load_dataset(tmp_path, capsys):
    from sd4x.dataset import load_dataset
    from sd4x.errors import InputError

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(_TICKETS_SCHEMA))
    with_text = tmp_path / "with_text.csv"
    with_text.write_text("severity,message,class\n1.0,disk full,hw\n\noops,swap full,hw\n")
    without_text = tmp_path / "without_text.csv"
    without_text.write_text("severity,class\n1.0,hw\n\noops,hw\n")

    capsys.readouterr()
    assert main(_featurize_args(tmp_path, with_text, schema)) == 2
    featurize_err = capsys.readouterr().err
    with pytest.raises(InputError) as exc:
        load_dataset(str(without_text), str(schema))
    spot = "row 3, column 'severity': 'oops' is not numeric"
    assert spot in featurize_err
    assert spot in str(exc.value)


def test_explain_on_toy_fixture(tmp_path):
    # tiny mixed-type dataset exercises one-hot and ordinal splits end to end
    bb_path = tmp_path / "bb.json"
    weights = np.zeros((2, 11))
    weights[0, 0] = 2.0
    weights[0, 5] = 1.5
    bb_path.write_text(
        json.dumps(
            {
                "type": "linear",
                "classes": ["TEC", "OT"],
                "columns": [
                    "disk",
                    "swap",
                    "full",
                    "java",
                    "http",
                    "weekend",
                    "Soft. version",
                    "Soft. type=Sales",
                    "Soft. type=Factory",
                    "Memory usage",
                    "% used heap",
                ],
                "weights": weights.tolist(),
                "biases": [0.0, 0.0],
            }
        )
    )
    out = tmp_path / "toy_partition.json"
    code = main(
        [
            "explain",
            "--data",
            TOY_CSV,
            "--schema",
            TOY_SCHEMA,
            "--blackbox",
            str(bb_path),
            "--k",
            "3",
            "--n-synth",
            "20",
            "--lambda",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    dump = json.loads(out.read_text())
    assert dump["config"]["k"] == 3
    for sd in dump["subgroups"]:
        assert isinstance(sd["pattern"], str)
        assert isinstance(sd["pattern_closed"], str)
