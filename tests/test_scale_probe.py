from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

PROBE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "scale_probe.py")


def test_scale_probe_runs_and_counts_the_split_search():
    # The probe wraps kernels.scan_sse and _Engine._grid_sse by their
    # argument positions; a refactor of the search must keep it working.
    out = subprocess.run(
        [sys.executable, PROBE, "--n", "60", "--m", "3", "--k", "3", "--n-synth", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    calls = re.search(r"^\s*scan calls: (\d+)$", out.stdout, re.M)
    bounds = re.search(r"^\s*boundaries: (\d+) \((\d+) on grids\)$", out.stdout, re.M)
    assert calls and bounds, out.stdout
    assert int(bounds[1]) >= int(bounds[2]) > 0


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
    record = json.loads(path.read_text())
    assert record["sizes"] == {"n": 60, "m": 3, "k": 3, "n_synth": 5, "seed": 1}
    assert set(record["stages_s"]) == {"build", "label", "grams", "split search", "validate"}
    assert all(t >= 0 for t in record["stages_s"].values())
    assert record["peak_rss_mb"] > 0
    assert record["boundaries"] >= record["grid_boundaries"] > 0
    assert record["scan_calls"] >= 0 and record["subgroups"] >= 1
    printed = re.search(r"^\s*boundaries: (\d+) ", out.stdout, re.M)
    assert int(printed[1]) == record["boundaries"]
    assert record["git_sha"] is None or re.fullmatch(r"[0-9a-f]{40}", record["git_sha"])
    assert record["nproc"] == os.cpu_count()
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__
