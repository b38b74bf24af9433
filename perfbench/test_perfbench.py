"""Smoke tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They use the ``--smoke`` sizes, so each run takes about a second.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def _main(capsys, *argv) -> tuple[dict, str, str]:
    assert run.main(list(argv)) == 0
    out, err = capsys.readouterr()
    return json.loads(out.strip().splitlines()[-1]), out, err


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        tracer.Span(1, "parent", 0.0, 10.0, None),
        tracer.Span(2, "a", 1.0, 3.0, 1),
        tracer.Span(3, "b", 2.0, 5.0, 1),  # overlaps a: a worker thread
        tracer.Span(4, "c", 7.0, 8.0, 1),
        tracer.Span(5, "grandchild", 7.2, 7.8, 4),
        tracer.Span(6, "late", 9.5, 11.0, 1),  # clipped to the parent's end
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert selfs[4] == pytest.approx(1.0 - 0.6)
    assert selfs[2] == pytest.approx(2.0)


def test_layer_metrics_derive_rates_from_counts():
    spans = [
        tracer.Span(1, "splitter.best_split", 0.0, 4.0, None),
        tracer.Span(2, "kernels.scan_sse", 0.5, 2.5, 1, count=100.0),
        tracer.Span(3, "whitebox.fit_on_neighborhoods", 3.0, 3.5, 1),
        tracer.Span(4, "kernels.solve_penalized", 3.1, 3.2, 3, count=1.0),
        tracer.Span(5, "kernels.solve_penalized", 5.0, 5.1, None, count=0.0),
    ]
    m = tracer.layer_metrics(spans, d=4, p=2)
    assert m["kernels.us_per_boundary"] == pytest.approx(2.0 / 100 * 1e6)
    assert m["kernels.ridge_solves"] == 2 * 100 + 2
    assert m["kernels.chol_ok_ratio"] == pytest.approx(0.5)
    assert m["splitter.refit_s"] == pytest.approx(0.5)
    assert m["splitter.scan_prep_self_s"] == pytest.approx(4.0 - 2.0 - 0.5)
    assert m["kernels.scan_mflop_computed"] == pytest.approx(
        100 * 2 * tracer.ridge_flops(4, 2) / 1e6
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(capsys, workload, trace):
    spec = _spec()
    result, out, _ = _main(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_ratio   0 ratio" in out
    env = json.loads(out.strip().splitlines()[-2])["env"]
    assert env["seed"] == 3 and env["workload"] == workload
    from sd4x import splitter

    assert not hasattr(splitter.run, "__wrapped__"), "tracer left a wrapper behind"


def test_quality_metrics_repeat_at_the_same_seed(capsys):
    argv = ("--workload", "split-numeric", "--seed", "5", "--seconds", "0.3", "--smoke")
    a, _, _ = _main(capsys, *argv)
    b, _, _ = _main(capsys, *argv)
    for key in ("partition_mse", "top1_f1"):
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"]


def test_a_failed_check_counts_as_a_failed_operation(capsys, monkeypatch):
    assert run.load_program() is not None
    from sd4x import splitter

    original = splitter.subgroup_loss
    monkeypatch.setattr(
        splitter, "subgroup_loss", lambda ns, mem, model: 1.01 * original(ns, mem, model)
    )
    result, out, err = _main(
        capsys, "--workload", "split-numeric", "--seed", "3", "--seconds", "0.5", "--smoke"
    )
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "check failed: stored_loss" in err
    ok = result["metrics"]["ok_ratio"]["value"]
    assert ok == pytest.approx(1.0 - result["failed"] / result["attempted"])
    assert ok < 1.0


def test_a_check_that_raises_counts_as_a_failed_operation(capsys, monkeypatch):
    assert run.load_program() is not None
    import checks

    def broken(report):
        raise KeyError("mse")

    monkeypatch.setattr(checks, "ordering_checks", broken)
    result, _, err = _main(
        capsys, "--workload", "cli-external-cache", "--seed", "3", "--seconds", "0.5",
        "--smoke",
    )
    assert result["correct"] is False
    assert "check failed: eval_check_raised" in err
    # Each smoke iteration is one explain, which passes, and two evals.
    assert 3 * result["failed"] == 2 * result["attempted"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out", "work", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split-numeric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
