"""Stage timings of one explain run on a numeric synthetic world of a given size.

Usage (from the repository root):

    python3 tools/scale_probe.py --n 2000 --m 12 --k 10

The world has m uniform numeric attributes, three classes and four
softmax-linear regimes cut at 0.5 on x0 and x1.  One run plans and
labels the neighborhoods, looks up the per-object Gram pieces, searches
the splits and validates the partition, each stage timed on its own,
with lambda = 1.  "build" only plans (it factors the covariance);
"label" draws the rows, calls the black box and forms the Gram pieces,
one chunk of objects at a time, so "grams" is a lookup.  ``--threads N``
(default 1) is the thread count given to every stage that takes one:
labeling, which runs on the build's workers, and the split search
(``splitter.run``, whose search itself runs on the calling thread).
Validation runs on one thread.  The probe prints each stage's wall
time, the process's peak RSS, and what the split search solved:

* ridge systems, every matrix given to ``kernels.solve_stack`` (grid
  points, interval boundaries and the winners' refits);
* bound systems, every matrix given to ``kernels.least_squares_sse``
  (grid children, and each object's own neighborhood once per run);
* solve calls, the calls of ``np.linalg.cholesky`` that factor them;
* the ``kernels.scan_sse`` calls and the interval boundaries they solve.

With ``--json PATH`` it also appends these numbers to the ``runs`` list
of the JSON object in PATH (a new file holds ``{"runs": [...]}``; other
keys and earlier runs are kept), with the sizes and the git commit of
the checkout, which key the run, and the CPU count and the Python and
numpy versions, so runs on one machine can be compared across commits.
The program is imported from ``src/`` next to this directory; nothing
is installed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sd4x import dataset, kernels, splitter, synth  # noqa: E402
from sd4x.neighborhood import build, label  # noqa: E402
from sd4x.whitebox import neighborhood_grams  # noqa: E402


def _world(n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    regimes = [
        {
            "conditions": [
                {"column": "x0", "op": op0, "value": 0.5},
                {"column": "x1", "op": op1, "value": 0.5},
            ],
            "weights": (3.0 * rng.standard_normal((3, m))).tolist(),
            "biases": rng.standard_normal(3).tolist(),
        }
        for op0 in ("le", "gt")
        for op1 in ("le", "gt")
    ]
    spec = synth.spec_from_dict(
        {
            "attributes": [{"name": f"x{j}", "kind": "numeric"} for j in range(m)],
            "classes": ["c0", "c1", "c2"],
            "n": n,
            "regimes": regimes,
        }
    )
    world = synth.generate_synthetic(spec, seed=seed)
    return dataset.encode(world.dataset), world.blackbox


def _git_sha() -> str | None:
    """The commit checked out at the repository root, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _read_history(path: str) -> dict | None:
    """The probe file at ``path``, a new one if there is none, or None if it is something else."""
    try:
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)
    except FileNotFoundError:
        return {"runs": []}
    except (OSError, ValueError):
        return None
    if not (isinstance(history, dict) and isinstance(history.get("runs"), list)):
        return None
    return history


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="explained objects")
    parser.add_argument("--m", type=int, required=True, help="numeric attributes (at least 2)")
    parser.add_argument("--k", type=int, default=10, help="subgroup budget")
    parser.add_argument("--n-synth", type=int, default=100, help="synthetic rows per object")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--threads", type=int, default=1,
        help="threads of labeling and the split search",
    )
    parser.add_argument("--json", metavar="PATH", help="also append the results to PATH")
    args = parser.parse_args(argv)
    if args.m < 2:
        parser.error("--m must be at least 2: the regimes cut on x0 and x1")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    history = _read_history(args.json) if args.json else None
    if args.json and history is None:
        parser.error(f"--json {args.json}: not a JSON object with a 'runs' list")

    enc, bb = _world(args.n, args.m, args.seed)
    counts = dict.fromkeys(
        ("ridge_systems", "bound_systems", "solve_calls", "scan_calls", "scanned_boundaries"), 0
    )
    solve_stack, least_squares_sse = kernels.solve_stack, kernels.least_squares_sse
    scan_sse, cholesky = kernels.scan_sse, np.linalg.cholesky

    def ridge_counted(G, *a):
        counts["ridge_systems"] += G.shape[0]
        return solve_stack(G, *a)

    def bound_counted(G, *a):
        counts["bound_systems"] += G.shape[0]
        return least_squares_sse(G, *a)

    def cholesky_counted(A, *a, **kw):
        counts["solve_calls"] += 1
        return cholesky(A, *a, **kw)

    def scan_counted(*a, **kw):
        counts["scan_calls"] += 1
        counts["scanned_boundaries"] += len(a[6])
        return scan_sse(*a, **kw)

    stages = {}

    def timed(name, fn, *a, **kw):
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        stages[name] = time.perf_counter() - t0
        return out

    ns = timed(
        "build", build, enc, z=10, n_synth=args.n_synth, seed=args.seed, threads=args.threads
    )
    ns = timed("label", label, ns, bb)
    timed("grams", neighborhood_grams, ns, args.threads)
    kernels.solve_stack, kernels.least_squares_sse = ridge_counted, bound_counted
    kernels.scan_sse, np.linalg.cholesky = scan_counted, cholesky_counted
    try:
        partition = timed(
            "split search", splitter.run, enc, K=args.k, lam=1.0, threads=args.threads, ns=ns,
            validate=False,
        )
    finally:
        kernels.solve_stack, kernels.least_squares_sse = solve_stack, least_squares_sse
        kernels.scan_sse, np.linalg.cholesky = scan_sse, cholesky
    timed("validate", splitter.validate_partition, partition, enc, args.k)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    threads = f" threads={args.threads}" if args.threads != 1 else ""
    print(f"n={args.n} m={args.m} K={args.k} n_synth={args.n_synth} seed={args.seed}{threads}")
    for name, seconds in stages.items():
        print(f"{name:>18}: {seconds:8.3f} s")
    print(f"{'peak RSS':>18}: {peak_mb:8.1f} MB")
    for name, value in counts.items():
        print(f"{name.replace('_', ' '):>18}: {value}")
    print(f"{'subgroups':>18}: {len(partition.subgroups)}")
    if args.json:
        record = {
            "sizes": {
                "n": args.n, "m": args.m, "k": args.k,
                "n_synth": args.n_synth, "seed": args.seed, "threads": args.threads,
            },
            "stages_s": stages,
            "peak_rss_mb": peak_mb,
            **counts,
            "subgroups": len(partition.subgroups),
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        history["runs"].append(record)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
