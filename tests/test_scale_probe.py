from __future__ import annotations

import os
import re
import subprocess
import sys

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
