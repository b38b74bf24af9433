"""In-memory spans around the public functions of each sd4x module.

The wrappers live in the benchmark, not in the program: each one is set
on the module attribute (or class attribute) where the program looks the
function up, so ``splitter.fit_on_neighborhoods`` and
``evaluation.fit_on_neighborhoods`` are patched separately even though
they are the same function.  A span records its name, start, end, parent
span and an optional count taken from the call (boundaries scanned,
rows labeled, cache hit, ...).  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    count: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _boundaries(args, kwargs, result):
    return float(len(args[6]))


def _chol_ok(args, kwargs, result):
    return 1.0 if result[1] else 0.0


def _batch_rows(args, kwargs, result):
    return float(args[1].shape[0])


def _ns_rows(args, kwargs, result):
    return float(result.samples.shape[0] * result.samples.shape[1])


def _cache_hit(args, kwargs, result):
    return 0.0 if result is None else 1.0


def _cache_bytes(args, kwargs, result):
    path = args[0]
    return float(os.path.getsize(path if path.endswith(".npz") else path + ".npz"))


# (module, attribute, span name, count function).  A class attribute is
# written "Class.method".  Every site where the program looks a traced
# function up is listed, so a call is caught whichever module makes it.
TARGETS = [
    ("kernels", "scan_sse", "kernels.scan_sse", _boundaries),
    ("kernels", "solve_penalized", "kernels.solve_penalized", _chol_ok),
    ("splitter", "run", "splitter.run", None),
    ("splitter", "_Engine.best_split", "splitter.best_split", None),
    ("splitter", "validate_partition", "splitter.validate_partition", None),
    ("splitter", "partition_to_dict", "splitter.partition_to_dict", None),
    ("splitter", "extent", "patterns.extent", None),
    ("splitter", "closed_form", "patterns.closed_form", None),
    ("splitter", "build", "neighborhood.build", _ns_rows),
    ("splitter", "label", "neighborhood.label", None),
    ("splitter", "neighborhood_grams", "whitebox.neighborhood_grams", None),
    ("splitter", "fit_on_neighborhoods", "whitebox.fit_on_neighborhoods", None),
    ("splitter", "subgroup_loss", "whitebox.subgroup_loss", None),
    ("splitter", "content_hash", "dataset.content_hash", None),
    ("neighborhood", "build", "neighborhood.build", _ns_rows),
    ("neighborhood", "label", "neighborhood.label", None),
    ("whitebox", "neighborhood_grams", "whitebox.neighborhood_grams", None),
    ("evaluation", "build_report", "evaluation.build_report", None),
    ("evaluation", "fit_global_wb", "evaluation.fit_global_wb", None),
    ("evaluation", "fit_local_wb", "evaluation.fit_local_wb", None),
    ("evaluation", "topk_f1", "evaluation.topk_f1", None),
    ("evaluation", "fit_on_neighborhoods", "whitebox.fit_on_neighborhoods", None),
    ("evaluation", "subgroup_loss", "whitebox.subgroup_loss", None),
    ("blackbox", "LinearBlackBox.predict_batch", "blackbox.predict_batch", _batch_rows),
    (
        "blackbox",
        "PiecewiseLinearBlackBox.predict_batch",
        "blackbox.predict_batch",
        _batch_rows,
    ),
    ("blackbox", "ExternalBlackBox.predict_batch", "blackbox.predict_batch", _batch_rows),
    ("text", "featurize_text", "text.featurize_text", None),
    ("cli", "cmd_explain", "cli.cmd_explain", None),
    ("cli", "cmd_eval", "cli.cmd_eval", None),
    ("cli", "load_dataset", "dataset.load_dataset", None),
    ("cli", "encode", "dataset.encode", None),
    ("cli", "content_hash", "dataset.content_hash", None),
    ("cli", "build", "neighborhood.build", _ns_rows),
    ("cli", "label", "neighborhood.label", None),
    ("cli", "load_cache", "neighborhood.load_cache", _cache_hit),
    ("cli", "save_cache", "neighborhood.save_cache", _cache_bytes),
    ("cli", "subgroup_loss", "whitebox.subgroup_loss", None),
]


class Tracer:
    """Collects spans from wrapped functions while installed.

    A span opened on a worker thread with no open span of its own takes
    the innermost open span of the installing thread as its parent: the
    only worker threads the program starts are its column-scan and
    neighborhood pools, which the installing thread waits on.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = count(args, kwargs, result) if count is not None else None
            self.spans.append(Span(sid, name, start, end, parent, value))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._main = threading.get_ident()
        for mod_name, attr, name, count in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it that its children cover.

    Children may overlap (spans from parallel worker threads), so the
    covered time is the length of the union of their intervals.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def ridge_flops(d: int, p: int) -> float:
    """Floating-point operations one numpy ``ridge_sse`` evaluation computes.

    Cholesky test factorization (d^3/3), LU solve with p right-hand sides
    (2d^3/3 + 2d^2 p), ``G @ B`` (2d^2 p) and the residual reduction
    (3dp).  This is an operation count computed from the shapes, not a
    hardware counter.
    """
    return d**3 / 3 + 2 * d**3 / 3 + 2 * d * d * p + 2 * d * d * p + 3 * d * p


def layer_metrics(spans: list[Span], d: int, p: int) -> dict[str, float]:
    """Per-layer counts and times of one traced iteration (explain + eval)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def counted(name):
        return sum(s.count or 0.0 for s in by_name.get(name, ()))

    def self_total(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    best_ids = {s.id for s in by_name.get("splitter.best_split", ())}
    refit = sum(
        s.duration
        for name in ("whitebox.fit_on_neighborhoods", "whitebox.subgroup_loss")
        for s in by_name.get(name, ())
        if s.parent in best_ids
    )
    boundaries = counted("kernels.scan_sse")
    scan_s = total("kernels.scan_sse")
    solves = calls("kernels.solve_penalized")
    bb_rows = counted("blackbox.predict_batch")
    bb_s = total("blackbox.predict_batch")
    loads = calls("neighborhood.load_cache")
    hits = counted("neighborhood.load_cache")
    return {
        "kernels.scan_calls": float(calls("kernels.scan_sse")),
        "kernels.scan_boundaries": boundaries,
        "kernels.scan_s": scan_s,
        "kernels.us_per_boundary": 1e6 * scan_s / boundaries if boundaries else 0.0,
        "kernels.scan_mflop_computed": boundaries * 2 * ridge_flops(d, p) / 1e6,
        "kernels.solve_calls": float(solves),
        "kernels.solve_s": total("kernels.solve_penalized"),
        "kernels.chol_ok_ratio": counted("kernels.solve_penalized") / solves if solves else 0.0,
        "kernels.ridge_solves": 2 * boundaries + solves,
        "splitter.run_s": total("splitter.run"),
        "splitter.best_split_calls": float(calls("splitter.best_split")),
        "splitter.best_split_s": total("splitter.best_split"),
        "splitter.scan_prep_self_s": self_total("splitter.best_split"),
        "splitter.refit_s": refit,
        "splitter.validate_s": total("splitter.validate_partition"),
        "splitter.to_dict_s": total("splitter.partition_to_dict"),
        "patterns.extent_s": total("patterns.extent"),
        "patterns.closed_form_s": total("patterns.closed_form"),
        "neighborhood.build_s": total("neighborhood.build"),
        "neighborhood.rows": counted("neighborhood.build"),
        "neighborhood.label_s": total("neighborhood.label"),
        "neighborhood.save_cache_s": total("neighborhood.save_cache"),
        "neighborhood.load_cache_s": total("neighborhood.load_cache"),
        "neighborhood.cache_hits": hits,
        "neighborhood.cache_misses": loads - hits,
        "neighborhood.cache_mb": counted("neighborhood.save_cache") / 1e6,
        "blackbox.calls": float(calls("blackbox.predict_batch")),
        "blackbox.rows": bb_rows,
        "blackbox.predict_s": bb_s,
        "blackbox.rows_per_s": bb_rows / bb_s if bb_s > 0 else 0.0,
        "whitebox.grams_s": total("whitebox.neighborhood_grams"),
        "whitebox.fit_calls": float(calls("whitebox.fit_on_neighborhoods")),
        "whitebox.fit_s": total("whitebox.fit_on_neighborhoods"),
        "whitebox.loss_calls": float(calls("whitebox.subgroup_loss")),
        "whitebox.loss_s": total("whitebox.subgroup_loss"),
        "evaluation.global_wb_s": total("evaluation.fit_global_wb"),
        "evaluation.local_wb_s": total("evaluation.fit_local_wb"),
        "evaluation.topk_f1_s": total("evaluation.topk_f1"),
        "evaluation.build_report_s": total("evaluation.build_report"),
        "dataset.load_dataset_s": total("dataset.load_dataset"),
        "dataset.encode_s": total("dataset.encode"),
        "dataset.content_hash_s": total("dataset.content_hash"),
        "cli.explain_self_s": self_total("cli.cmd_explain"),
        "cli.eval_self_s": self_total("cli.cmd_eval"),
        "trace.spans": float(len(spans)),
    }
