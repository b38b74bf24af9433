"""The three benchmark workloads: seeded inputs, timed operations, checks.

Every workload keeps its black box fixed (drawn from a constant model
seed) and draws only the explained objects, neighborhoods and text from
the run seed, so the cost and the quality metrics of a workload stay
comparable from one seed to the next.  Each is a closed loop: one
caller, one explain call, then one eval call on its result.

* ``split-numeric``: library ``run`` on numeric data; split search is
  the bottleneck.
* ``neighborhood-mixed``: library ``run`` on a mixed schema with tf-idf
  text columns and a large neighborhood; neighborhood build, labeling
  and per-object Gram pieces carry the cost.
* ``cli-external-cache``: ``sd4x explain`` / ``sd4x eval`` through
  ``cli.main`` with an external black-box command and a fresh cache
  directory per explain, so explain misses the cache and eval hits it.
"""
from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
from dataclasses import dataclass

import numpy as np

import checks
from sd4x import blackbox, cli, dataset, evaluation, neighborhood, splitter, synth, text

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_SCRIPT = os.path.join(HERE, "softmax_model.py")

_LAMBDA = 1.0
_Z = 10


def _regimes(rng, p: int, m: int, a: str, b: str, scale: float = 3.0) -> list[dict]:
    """Four softmax-linear regimes cut at 0.5 on encoded columns a and b."""
    out = []
    for op_a in ("le", "gt"):
        for op_b in ("le", "gt"):
            out.append(
                {
                    "conditions": [
                        {"column": a, "op": op_a, "value": 0.5},
                        {"column": b, "op": op_b, "value": 0.5},
                    ],
                    "weights": (scale * rng.standard_normal((p, m))).tolist(),
                    "biases": rng.standard_normal(p).tolist(),
                }
            )
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def partition_bytes(partition, enc) -> bytes:
    """The bytes ``sd4x explain`` writes for this partition."""
    text_ = json.dumps(splitter.partition_to_dict(partition, enc), indent=2, sort_keys=True)
    return (text_ + "\n").encode("utf-8")


@dataclass
class Outcome:
    """What one explain + eval iteration produced, for checks and metrics."""

    partition_mse: float
    top1_f1: float
    digest: str


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


class LibraryWorkload:
    """build -> label -> splitter.run, then evaluation.build_report."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, smoke: bool, workdir: str) -> None:
        self.size = self.sizes["smoke" if smoke else "full"]
        self.workdir = workdir
        self.threads = self.size["threads"]
        self.evals = self.size["evals"]

    def setup(self, seed: int) -> None:
        self.enc, self.bb = self.make_inputs(seed)
        self.seed = seed
        self.d = self.enc.m + 1
        self.p = len(self.enc.classes)

    def explain(self):
        s = self.size
        ns = neighborhood.label(
            neighborhood.build(
                self.enc, z=_Z, n_synth=s["n_synth"], seed=self.seed, threads=self.threads
            ),
            self.bb,
        )
        partition = splitter.run(
            self.enc,
            K=s["k"],
            lam=_LAMBDA,
            threads=self.threads,
            split_columns=s.get("split_columns"),
            ns=ns,
        )
        return partition, ns

    def evaluate(self, explained):
        partition, ns = explained
        return evaluation.build_report(partition, ns, self.enc.values, _LAMBDA)

    def check_explain(self, explained, first: Outcome | None) -> tuple[list[str], str]:
        partition, ns = explained
        failed = checks.partition_checks(partition, self.enc, ns, self.size["k"])
        digest = _digest(partition_bytes(partition, self.enc))
        if first is not None and digest != first.digest:
            failed.append("partition_bytes_repeat")
        return failed, digest

    def check_eval(self, explained, report) -> list[str]:
        return checks.ordering_checks(report)

    def outcome(self, explained, report, digest: str) -> Outcome:
        partition, _ = explained
        return Outcome(
            partition_mse=partition.global_loss / self.enc.n,
            top1_f1=float(report["f1"]["1"]),
            digest=digest,
        )

    def cleanup_iteration(self) -> None:
        pass


class SplitNumeric(LibraryWorkload):
    name = "split-numeric"
    sizes = {
        "full": {"n": 600, "m": 12, "p": 3, "k": 10, "n_synth": 100, "threads": 1,
                 "evals": 10},
        "smoke": {"n": 80, "m": 4, "p": 3, "k": 3, "n_synth": 10, "threads": 1, "evals": 2},
    }
    model_seed = 1001

    def make_inputs(self, seed: int):
        s = self.size
        rng = np.random.default_rng(self.model_seed)
        spec = synth.spec_from_dict(
            {
                "attributes": [{"name": f"x{j}", "kind": "numeric"} for j in range(s["m"])],
                "classes": [f"c{i}" for i in range(s["p"])],
                "n": s["n"],
                "regimes": _regimes(rng, s["p"], s["m"], "x0", "x1"),
            }
        )
        world = synth.generate_synthetic(spec, seed=seed)
        return dataset.encode(world.dataset), world.blackbox


_COLORS = tuple(f"col{i}" for i in range(5))
_SHAPES = tuple(f"shp{i}" for i in range(5))
_LEVELS = ("low", "mid", "high")
_VOCAB = tuple(f"w{i:03d}" for i in range(200))


class NeighborhoodMixed(LibraryWorkload):
    name = "neighborhood-mixed"
    sizes = {
        "full": {
            "n": 550, "p": 4, "k": 4, "n_synth": 600, "top_n": 20, "threads": 2,
            "split_columns": "non-text", "evals": 4,
        },
        "smoke": {
            "n": 80, "p": 4, "k": 3, "n_synth": 20, "top_n": 5, "threads": 2,
            "split_columns": "non-text", "evals": 2,
        },
    }
    model_seed = 2002

    def make_inputs(self, seed: int):
        s = self.size
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
        n = s["n"]
        zipf = 1.0 / np.arange(1, len(_VOCAB) + 1) ** 1.1
        zipf /= zipf.sum()
        texts = [
            " ".join(rng.choice(_VOCAB, size=int(rng.integers(4, 16)), p=zipf))
            for _ in range(n)
        ]
        matrix, vocab = text.featurize_text(texts, s["top_n"])
        A, K = dataset.Attribute, dataset.AttributeKind
        attrs = (
            A("num0", K.NUMERIC),
            A("num1", K.NUMERIC),
            A("num2", K.NUMERIC),
            A("flag", K.BOOLEAN),
            A("color", K.NOMINAL, categories=_COLORS),
            A("shape", K.NOMINAL, categories=_SHAPES),
            A("size", K.ORDINAL, categories=_LEVELS),
        ) + tuple(A(f"note_{t}", K.NUMERIC, text_field="note") for t in vocab)
        rows = [
            (
                float(rng.random()),
                float(rng.random()),
                float(rng.random()),
                bool(rng.random() < 0.5),
                _COLORS[int(rng.integers(5))],
                _SHAPES[int(rng.integers(5))],
                _LEVELS[int(rng.integers(3))],
            )
            + tuple(float(v) for v in matrix[i])
            for i in range(n)
        ]
        classes = tuple(f"c{i}" for i in range(s["p"]))
        enc = dataset.encode(dataset.Dataset(attrs, classes, rows))
        # One fixed weight row per vocabulary word, so a term keeps its
        # effect on the model whichever column the seed puts it in.
        model_rng = np.random.default_rng(self.model_seed)
        base = sum(1 for c in enc.columns if enc.attributes[c.source].text_field is None)
        regimes = _regimes(model_rng, s["p"], base, "num0", "flag")
        for r, reg in enumerate(regimes):
            term_rng = np.random.default_rng((self.model_seed, r))
            table = 3.0 * term_rng.standard_normal((len(_VOCAB), s["p"]))
            text_w = np.stack([table[int(t[1:])] for t in vocab], axis=1)
            reg["weights"] = np.concatenate([np.asarray(reg["weights"]), text_w], axis=1).tolist()
        bb = blackbox.blackbox_from_dict(
            {
                "type": "piecewise_linear",
                "classes": list(classes),
                "columns": list(enc.column_names),
                "regimes": regimes,
            }
        )
        return enc, bb


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


class CliExternalCache:
    """``sd4x explain`` then ``sd4x eval`` with an external black box."""

    name = "cli-external-cache"
    sizes = {
        "full": {"n": 500, "m": 8, "p": 3, "k": 4, "n_synth": 100, "evals": 5},
        "smoke": {"n": 60, "m": 4, "p": 3, "k": 3, "n_synth": 10, "evals": 2},
    }
    model_seed = 3003

    def __init__(self, smoke: bool, workdir: str) -> None:
        self.size = self.sizes["smoke" if smoke else "full"]
        self.workdir = workdir
        self.evals = self.size["evals"]
        self.threads = None
        self.iteration = 0

    def setup(self, seed: int) -> None:
        s = self.size
        self.seed = seed
        self.world = os.path.join(self.workdir, "world")
        shutil.rmtree(self.world, ignore_errors=True)
        os.makedirs(self.world)
        rng = np.random.default_rng(self.model_seed)
        spec = {
            "attributes": [{"name": f"x{j}", "kind": "numeric"} for j in range(s["m"])],
            "classes": [f"c{i}" for i in range(s["p"])],
            "n": s["n"],
            "regimes": _regimes(rng, s["p"], s["m"], "x0", "x1"),
        }
        spec_path = os.path.join(self.world, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        self._cli(["synth", "--spec", spec_path, "--out", self.world, "--seed", str(seed)])
        self.data = os.path.join(self.world, "data.csv")
        self.schema = os.path.join(self.world, "schema.json")
        self.bb_cmd = " ".join(
            shlex.quote(a)
            for a in (sys.executable, MODEL_SCRIPT, os.path.join(self.world, "blackbox.json"))
        )
        self.enc = dataset.encode(dataset.load_dataset(self.data, self.schema))
        self.d = self.enc.m + 1
        self.p = len(self.enc.classes)
        # The thread count the CLI resolves when --threads is left unset.
        unset = cli.build_parser().parse_args(
            ["explain", "--data", "d", "--schema", "s", "--blackbox", "b", "--out", "o"]
        )
        self.threads = cli._resolve_threads(unset, {})

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sd4x {argv[0]} exited with {code}")

    def _iter_dir(self) -> str:
        return os.path.join(self.workdir, f"iter-{self.iteration}")

    def explain(self):
        self.iteration += 1
        it = self._iter_dir()
        os.makedirs(it)
        out = os.path.join(it, "partition.json")
        self._cli(
            [
                "explain", "--data", self.data, "--schema", self.schema,
                "--blackbox-cmd", self.bb_cmd, "--cache-dir", os.path.join(it, "cache"),
                "--k", str(self.size["k"]), "--n-synth", str(self.size["n_synth"]),
                "--seed", str(self.seed), "--out", out,
            ]
        )
        return out

    def evaluate(self, partition_path):
        it = self._iter_dir()
        self.cache_stamp = self._cache_stamp()
        self._cli(
            [
                "eval", "--partition", partition_path, "--data", self.data,
                "--schema", self.schema, "--blackbox-cmd", self.bb_cmd,
                "--cache-dir", os.path.join(it, "cache"),
                "--out-dir", os.path.join(it, "report"),
            ]
        )
        with open(os.path.join(it, "report", "report.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def _cache_file(self) -> str:
        files = glob.glob(os.path.join(self._iter_dir(), "cache", "ns-*.npz"))
        if len(files) != 1:
            raise RuntimeError(f"expected one cache file, found {len(files)}")
        return files[0]

    def _cache_stamp(self):
        st = os.stat(self._cache_file())
        return st.st_mtime_ns, st.st_size

    def check_explain(self, partition_path, first: Outcome | None) -> tuple[list[str], str]:
        with open(partition_path, "rb") as fh:
            raw = fh.read()
        digest = _digest(raw)
        ns = neighborhood.load_cache(self._cache_file())
        if ns is None:
            return ["cache_readable"], digest
        failed = checks.dump_checks(json.loads(raw), self.enc, ns, self.size["k"])
        if first is None:
            # The first dump is also recomputed through the library on the
            # cached neighborhoods: the partition must validate and its
            # serialization must equal the CLI's bytes.  Later dumps are
            # compared byte for byte with the first one.
            partition = splitter.run(
                self.enc, K=self.size["k"], lam=_LAMBDA, threads=1, ns=ns, validate=False
            )
            failed += checks.partition_checks(partition, self.enc, ns, self.size["k"])
            if partition_bytes(partition, self.enc) != raw:
                failed.append("cli_matches_library")
        elif digest != first.digest:
            failed.append("partition_bytes_repeat")
        return failed, digest

    def check_eval(self, partition_path, report) -> list[str]:
        failed = checks.ordering_checks(report)
        if self._cache_stamp() != self.cache_stamp:
            failed.append("eval_reused_cache")
        return failed

    def outcome(self, partition_path, report, digest: str) -> Outcome:
        with open(partition_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        return Outcome(
            partition_mse=float(dump["global_loss"]) / self.enc.n,
            top1_f1=float(report["f1"]["1"]),
            digest=digest,
        )

    def cleanup_iteration(self) -> None:
        shutil.rmtree(self._iter_dir(), ignore_errors=True)


WORKLOADS = {w.name: w for w in (SplitNumeric, NeighborhoodMixed, CliExternalCache)}
