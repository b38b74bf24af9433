"""End-to-end and per-layer benchmark of the sd4x pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload split-numeric --seed 1 --seconds 24 --trace 0

Workloads: ``split-numeric``, ``neighborhood-mixed``, ``cli-external-cache``
(see ``workloads.py`` for what each one stresses and why).  The program
is imported from ``src/`` next to this directory; nothing is installed.

``--trace 0`` measures with no wrappers installed and reports the
end-to-end metrics: ``setup_s``, ``explain_s``, ``eval_s`` (medians over
the run's iterations), ``peak_rss_mb``, ``partition_mse``, ``top1_f1``
and ``ok_ratio`` (1 - failed_ratio).  ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics of the traced
ones (medians per iteration), plus the tracing overhead.  Spans and the
environment are written to ``perfbench/out/``.

Every operation (one explain call or one eval call) is checked after it
returns; a failed check counts the operation as failed and is printed
by name on stderr.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Seeds: the workload seed is an argument.  ``HELD_OUT_SEED`` is kept
out of tuning: a claimed gain must also hold on it.

``--workload all`` runs the three workloads one after the other, each in
a fresh process, and prints one table of the end-to-end metrics.

``--smoke`` shrinks every workload to a size that runs in about a
second, for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, "work")

HELD_OUT_SEED = 90017
SETUP_REPS = 3
WORKLOAD_NAMES = ("split-numeric", "neighborhood-mixed", "cli-external-cache")

END_TO_END_UNITS = {
    "setup_s": "s",
    "explain_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "partition_mse": "loss/object",
    "top1_f1": "ratio",
    "ok_ratio": "ratio",
}


@dataclass
class Iteration:
    traced: bool
    explain_s: float | None = None
    eval_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    outcome: object = None
    spans: list = field(default_factory=list)

    def record(self, failed_checks: list[str]) -> None:
        if failed_checks:
            self.failures += failed_checks
            self.failed_ops += 1


def load_program():
    """Import sd4x from this checkout's ``src/``; None when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "sd4x", "__init__.py")):
        return None
    for var in ("SD4X_THREADS", "SD4X_NUMBA"):
        os.environ.pop(var, None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import sd4x

    if os.path.dirname(os.path.abspath(sd4x.__file__)) != os.path.join(SRC, "sd4x"):
        return None
    import workloads

    return workloads


def _op(it: Iteration, name: str, tracer, fn, *args):
    """Run one timed operation; returns (result or None if it raised, seconds)."""
    it.attempted += 1
    if tracer is not None:
        tracer.install(_modules())
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:
        traceback.print_exc()
        it.record([f"{name}_raised"])
        result = None
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return result, elapsed


def _modules() -> dict:
    import sd4x.blackbox
    import sd4x.cli
    import sd4x.evaluation
    import sd4x.kernels
    import sd4x.neighborhood
    import sd4x.splitter
    import sd4x.text
    import sd4x.whitebox

    return {
        name: sys.modules[f"sd4x.{name}"]
        for name in (
            "blackbox", "cli", "evaluation", "kernels", "neighborhood",
            "splitter", "text", "whitebox",
        )
    }


def run_iteration(wl, traced: bool, first) -> Iteration:
    """One explain call, then eval calls on its result, each checked.

    An operation fails when it raises, when one of its checks fails, or
    when a check raises on its output.

    An untraced iteration makes ``wl.evals`` eval calls, so that the
    short eval call gets enough samples; a traced one makes one, so its
    per-layer numbers describe one explain and one eval.
    """
    import tracer as tracing

    it = Iteration(traced=traced)
    tracer = tracing.Tracer() if traced else None
    explained, it.explain_s = _op(it, "explain", tracer, wl.explain)
    if explained is not None:
        try:
            failed_checks, digest = wl.check_explain(explained, first)
        except Exception:
            traceback.print_exc()
            failed_checks, digest = ["explain_check_raised"], None
        it.record(failed_checks)
        for _ in range(1 if traced else wl.evals):
            report, elapsed = _op(it, "eval", tracer, wl.evaluate, explained)
            it.eval_s.append(elapsed)
            if report is None:
                continue
            try:
                failed_checks = wl.check_eval(explained, report)
                if it.outcome is None:
                    it.outcome = wl.outcome(explained, report, digest)
            except Exception:
                traceback.print_exc()
                failed_checks = ["eval_check_raised"]
            it.record(failed_checks)
    if tracer is not None:
        it.spans = tracer.spans
    wl.cleanup_iteration()
    return it


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def git_sha(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl, args) -> dict:
    import numpy
    from sd4x import kernels

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "kernels_backend": kernels.backend(),
        "threads": wl.threads,
        "sizes": wl.size,
    }


def peak_rss_mb() -> float:
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def measure(args, workloads):
    """Set up, warm up, then loop iterations for ``args.seconds``."""
    import tracer as tracing

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.smoke, os.path.join(args.workdir, "main"))
    os.makedirs(wl.workdir)
    # Set-up is repeated and its median reported: generate the seeded
    # inputs, then warm up with one smoke-size iteration of the workload.
    # The last repetition is traced in a traced run, for text.featurize_s.
    setup_spans = []
    reps = []
    for rep in range(SETUP_REPS):
        tr = tracing.Tracer() if args.trace and rep == SETUP_REPS - 1 else None
        start = time.perf_counter()
        if tr is not None:
            tr.install(_modules())
        try:
            wl.setup(args.seed)
        finally:
            if tr is not None:
                tr.uninstall()
                setup_spans = tr.spans
        warm = cls(True, os.path.join(args.workdir, f"warm-{rep}"))
        os.makedirs(warm.workdir)
        warm.setup(args.seed)
        run_iteration(warm, False, None)
        reps.append(time.perf_counter() - start)

    iterations: list[Iteration] = []
    first = None
    start = time.perf_counter()
    while True:
        it = run_iteration(wl, bool(args.trace) and len(iterations) % 2 == 1, first)
        iterations.append(it)
        if first is None and it.outcome is not None:
            first = it.outcome
        elapsed = time.perf_counter() - start
        minimum = 2 if args.trace else 1
        if len(iterations) >= minimum and elapsed * (1 + 1 / len(iterations)) > args.seconds:
            break
    setup = {"import_s": args.import_s, "repetitions_s": reps}
    return setup, iterations, environment(wl, args), setup_spans, wl


def end_to_end(setup, iterations, first) -> dict:
    timed = [it for it in iterations if not it.traced]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed_ops for it in iterations)
    return {
        "setup_s": setup["import_s"] + _median(setup["repetitions_s"]),
        "explain_s": _median(it.explain_s for it in timed),
        "eval_s": _median(t for it in timed for t in it.eval_s),
        "peak_rss_mb": peak_rss_mb(),
        "partition_mse": first.partition_mse if first else 0.0,
        "top1_f1": first.top1_f1 if first else 0.0,
        "ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }


def per_layer(iterations, setup_spans, wl) -> dict:
    import tracer as tracing

    traced = [it for it in iterations if it.traced]
    rows = [tracing.layer_metrics(it.spans, wl.d, wl.p) for it in traced]
    out = {key: _median(r[key] for r in rows) for key in rows[0]}
    out["text.featurize_s"] = sum(
        (s.duration for s in setup_spans if s.name == "text.featurize_text"), 0.0
    )
    traced_explain = _median(it.explain_s for it in traced)
    untraced_explain = _median(it.explain_s for it in iterations if not it.traced)
    out["trace.explain_s"] = traced_explain
    out["trace.explain_untraced_s"] = untraced_explain
    out["trace.overhead_s"] = traced_explain - untraced_explain
    return out


PER_LAYER_UNITS = {
    "_calls": "count", "_boundaries": "count", "_solves": "count", "_rows": "count",
    ".rows": "count", ".calls": "count", "_hits": "count", "_misses": "count",
    ".spans": "count", "_ratio": "ratio", "_mb": "MB", "_s": "s",
    "us_per_boundary": "us", "mflop_computed": "MFLOP", "rows_per_s": "rows/s",
}


def layer_unit(name: str) -> str:
    for suffix in sorted(PER_LAYER_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return PER_LAYER_UNITS[suffix]
    raise KeyError(name)


def stage_shares(layers: dict) -> dict:
    """Share of the traced explain time spent in each pipeline stage."""
    total = layers["trace.explain_s"]
    if total <= 0:
        return {}
    stages = {
        "neighborhood.build": layers["neighborhood.build_s"],
        "neighborhood.label": layers["neighborhood.label_s"],
        "whitebox.grams": layers["whitebox.grams_s"],
        "splitter.best_split": layers["splitter.best_split_s"],
        "splitter.validate": layers["splitter.validate_s"],
        "splitter.to_dict": layers["splitter.to_dict_s"],
        "neighborhood.save_cache": layers["neighborhood.save_cache_s"],
    }
    return {k: v / total for k, v in stages.items()}


def run_all(args) -> int:
    """Run every workload in a fresh process and print one table.

    A fresh process per workload keeps each peak RSS to its own workload.
    """
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<14} {'unit':<12}" + "".join(f" {n:>20}" for n in results))
    for metric, unit in END_TO_END_UNITS.items():
        cells = "".join(f" {r['metrics'][metric]['value']:>20.6g}" for r in results.values())
        print(f"{metric:<14} {unit:<12}" + cells)
    cells = "".join(f" {r['failed'] / r['attempted']:>20.6g}" for r in results.values())
    print(f"{'failed_ratio':<14} {'ratio':<12}" + cells)
    if not all(r["correct"] for r in results.values()):
        code = code or 1
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    start = time.perf_counter()
    workloads = load_program()
    if workloads is None:
        print(f"error: no sd4x package under {SRC}", file=sys.stderr)
        return 2
    args.import_s = time.perf_counter() - start

    os.makedirs(WORK_DIR, exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    # The external black box and the CLI create temporary directories;
    # keep them inside the checkout.
    saved_tmp = tempfile.tempdir, os.environ.get("TMPDIR")
    tmp = os.path.join(args.workdir, "tmp")
    os.makedirs(tmp)
    tempfile.tempdir = tmp
    os.environ["TMPDIR"] = tmp
    try:
        setup, iterations, env, setup_spans, wl = measure(args, workloads)
    finally:
        tempfile.tempdir = saved_tmp[0]
        if saved_tmp[1] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmp[1]
        shutil.rmtree(args.workdir, ignore_errors=True)

    first = next((it.outcome for it in iterations if it.outcome is not None), None)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed_ops for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    e2e = end_to_end(setup, iterations, first)
    if args.trace:
        values = per_layer(iterations, setup_spans, wl)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    print(
        f"{args.workload} seed {args.seed}: {len(iterations)} iterations, "
        f"{attempted} operations, {failed} failed"
    )
    for name in END_TO_END_UNITS:
        print(f"  {name:<14} {e2e[name]:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_ratio':<14} {failed / attempted if attempted else 0.0:.6g} ratio")
    if first is not None:
        print(f"  partition.json sha256 {first.digest}")
    for name in sorted(set(failures)):
        print(f"  failed check: {name} ({failures.count(name)}x)")
    if args.trace:
        for name, share in stage_shares(values).items():
            print(f"  share of traced explain_s: {name:<24} {share:.3f}")
    for name in sorted(set(failures)):
        print(f"check failed: {name}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "env": env,
        "setup": setup,
        "end_to_end": e2e,
        "metrics": metrics,
        "failures": failures,
        "iterations": [
            {"traced": it.traced, "explain_s": it.explain_s, "eval_s": it.eval_s,
             "failures": it.failures}
            for it in iterations
        ],
    }
    if args.trace:
        t0 = min((s.start for it in iterations for s in it.spans), default=0.0)
        record["spans"] = [
            [
                [s.id, s.name, s.start - t0, s.end - t0, s.parent, s.count]
                for s in it.spans
            ]
            for it in iterations
            if it.traced
        ]
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
