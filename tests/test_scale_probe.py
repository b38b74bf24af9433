from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

PROBE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "scale_probe.py")


_COUNTS = ("ridge systems", "bound systems", "solve calls", "scan calls", "scanned boundaries")


def test_scale_probe_runs_and_counts_the_split_search():
    # The probe counts the matrices given to kernels.solve_stack and
    # kernels.least_squares_sse, the Cholesky calls that factor them and
    # the kernels.scan_sse calls; a refactor of the search must keep
    # those entry points.
    out = subprocess.run(
        [sys.executable, PROBE, "--n", "60", "--m", "3", "--k", "3", "--n-synth", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    got = {}
    for name in _COUNTS:
        line = re.search(rf"^\s*{name}: (\d+)$", out.stdout, re.M)
        assert line, (name, out.stdout)
        got[name] = int(line[1])
    # Both children of every grid point and scanned boundary are ridge
    # systems, and each Cholesky call factors at least one of them.
    assert got["ridge systems"] >= 2 * got["scanned boundaries"] > 0
    assert got["bound systems"] > 0 and got["scan calls"] > 0
    assert 0 < got["solve calls"] <= got["ridge systems"] + got["bound systems"]


def test_scale_probe_writes_its_numbers_as_json(tmp_path):
    path = tmp_path / "probe.json"
    out = subprocess.run(
        [sys.executable, PROBE, "--n", "60", "--m", "3", "--k", "3", "--n-synth", "5",
         "--json", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    (record,) = json.loads(path.read_text())["runs"]
    assert record["sizes"] == {"n": 60, "m": 3, "k": 3, "n_synth": 5, "seed": 1, "threads": 1}
    assert set(record["stages_s"]) == {"build", "label", "grams", "split search", "validate"}
    assert all(t >= 0 for t in record["stages_s"].values())
    assert record["peak_rss_mb"] > 0
    for name in _COUNTS:
        key = name.replace(" ", "_")
        printed = re.search(rf"^\s*{name}: (\d+)$", out.stdout, re.M)
        assert int(printed[1]) == record[key] > 0, name
    assert record["subgroups"] >= 1
    assert record["git_sha"] is None or re.fullmatch(r"[0-9a-f]{40}", record["git_sha"])
    assert record["nproc"] == os.cpu_count()
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__


def test_scale_probe_counts_do_not_depend_on_build_threads(tmp_path):
    # The threads change how the rows and Gram pieces are made, not
    # their bytes, so the split search solves the same systems.
    records = []
    for threads in (1, 2):
        path = tmp_path / f"probe-{threads}.json"
        out = subprocess.run(
            [sys.executable, PROBE, "--n", "60", "--m", "3", "--k", "3", "--n-synth", "200",
             "--threads", str(threads), "--json", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        records.append(json.loads(path.read_text())["runs"][-1])
    one, two = records
    assert one["sizes"]["threads"] == 1 and two["sizes"]["threads"] == 2
    for name in _COUNTS + ("subgroups",):
        key = name.replace(" ", "_")
        assert one[key] == two[key] > 0, name


def test_scale_probe_appends_to_its_json_file(tmp_path):
    # Earlier runs and other keys stay; each run is keyed by its commit and sizes.
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"what": "notes", "runs": [{"sizes": {"n": 1}}]}))
    for k in (2, 3):
        out = subprocess.run(
            [sys.executable, PROBE, "--n", "60", "--m", "3", "--k", str(k), "--n-synth", "5",
             "--json", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
    history = json.loads(path.read_text())
    assert history["what"] == "notes"
    assert [run["sizes"].get("k") for run in history["runs"]] == [None, 2, 3]
    assert all("git_sha" in run for run in history["runs"][1:])
    path.write_text("[]")
    out = subprocess.run(
        [sys.executable, PROBE, "--n", "60", "--m", "3", "--json", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 2 and "runs" in out.stderr
    assert path.read_text() == "[]"
