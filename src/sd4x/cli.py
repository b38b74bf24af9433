"""Command line front end.

Four subcommands cover the whole workflow:

* ``sd4x synth``     generate a labeled dataset plus a piecewise-linear
  black box from a JSON description, for benchmarking.
* ``sd4x featurize`` turn one free-text CSV column into tf-idf columns.
* ``sd4x explain``   partition the explained objects and dump the
  subgroups, patterns, and surrogate models as JSON.
* ``sd4x eval``      re-score a dumped partition against global and
  per-object baselines and write a report.

Exit codes: 0 success, 1 broken partition invariant, 2 bad input,
3 external black-box failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shlex
import sys

import numpy as np

from . import evaluation, splitter
from .blackbox import ExternalBlackBox, load_blackbox, save_blackbox
from .dataset import (
    Attribute,
    AttributeKind,
    Dataset,
    content_hash,
    encode,
    load_dataset,
    load_schema,
    parse_value,
    save_dataset,
    save_schema,
)
from .errors import (
    ExternalBlackBoxError,
    InputError,
    InvariantError,
    SD4XError,
)
from .neighborhood import build, cache_key, label, load_cache, save_cache
from .splitter import Partition, Subgroup
from .synth import generate_synthetic, spec_from_dict
from .text import featurize_text
from .whitebox import WhiteBoxModel, subgroup_loss

_LOSS_REL_TOL = 1e-6


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{what} file {path} must hold a JSON object")
    return obj


def _resolve(args: argparse.Namespace, config: dict, key: str, default, attr: str | None = None):
    value = getattr(args, attr or key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _resolve_threads(args: argparse.Namespace, config: dict) -> int:
    value = _resolve(args, config, "threads", None)
    if value is None:
        env = os.environ.get("SD4X_THREADS", "").strip()
        if env:
            try:
                value = int(env)
            except ValueError as exc:
                raise InputError(f"SD4X_THREADS must be an integer, got {env!r}") from exc
        else:
            value = os.cpu_count() or 1
    value = int(value)
    if value < 1:
        raise InputError(f"threads must be >= 1, got {value}")
    return value


def _load_config(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    config = _read_json(path, "config")
    return config


def _load_bb(args: argparse.Namespace, classes, columns):
    """Black box from --blackbox JSON or --blackbox-cmd external command."""
    path = getattr(args, "blackbox", None)
    cmd = getattr(args, "blackbox_cmd", None)
    if (path is None) == (cmd is None):
        raise InputError("exactly one of --blackbox and --blackbox-cmd is required")
    if path is not None:
        bb = load_blackbox(path)
        if tuple(bb.classes) != tuple(classes):
            raise InputError(
                f"black box classes {list(bb.classes)} do not match the schema"
            )
        if tuple(bb.columns) != tuple(columns):
            raise InputError("black box columns do not match the encoded dataset")
        with open(path, "rb") as fh:
            tag = "file:" + hashlib.sha256(fh.read()).hexdigest()
        return bb, tag
    parts = tuple(shlex.split(cmd))
    if not parts:
        raise InputError("--blackbox-cmd is empty")
    bb = ExternalBlackBox(classes=tuple(classes), columns=tuple(columns), command=parts)
    return bb, "cmd:" + cmd


def _cache_fits(ns, enc, bb, z, n_synth, seed) -> bool:
    """Whether cached neighborhoods have the shapes and settings of this run."""
    rows = (enc.n, 1 + n_synth)
    return (
        ns.samples.shape == (*rows, enc.m)
        and ns.bb_outputs.shape == (*rows, len(bb.classes))
        and (ns.z, ns.n_synth, ns.seed) == (z, n_synth, seed)
    )


def _neighborhoods(enc, bb, bb_tag, *, z, n_synth, seed, threads, cache_dir):
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        key = cache_key(content_hash(enc), seed, z, n_synth, bb_tag)
        path = os.path.join(cache_dir, f"ns-{key}.npz")
        cached = load_cache(path)
        if cached is not None and _cache_fits(cached, enc, bb, z, n_synth, seed):
            return cached
        ns = label(build(enc, z=z, n_synth=n_synth, seed=seed, threads=threads), bb)
        save_cache(path, ns)
        return ns
    return label(build(enc, z=z, n_synth=n_synth, seed=seed, threads=threads), bb)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = int(_resolve(args, config, "seed", 0))
    spec = spec_from_dict(_read_json(args.spec, "synthetic spec"))
    result = generate_synthetic(spec, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(result.dataset, os.path.join(args.out, "data.csv"))
    save_schema(
        os.path.join(args.out, "schema.json"),
        result.dataset.attributes,
        result.dataset.classes,
    )
    save_blackbox(os.path.join(args.out, "blackbox.json"), result.blackbox)
    _write_json(os.path.join(args.out, "ground_truth.json"), result.ground_truth)
    print(f"wrote {result.dataset.n} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def cmd_featurize(args: argparse.Namespace) -> int:
    config = _load_config(args)
    top_n = int(_resolve(args, config, "top-n", 10))
    attributes, classes = load_schema(args.schema)
    try:
        with open(args.data, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise InputError(f"cannot read {args.data}: {exc}") from exc
    if not rows:
        raise InputError(f"{args.data}: empty file")
    header, data_rows = rows[0], rows[1:]
    if args.field not in header:
        raise InputError(f"{args.data}: no column named {args.field!r}")
    fi = header.index(args.field)
    base_header = header[:fi] + header[fi + 1 :]
    expected = [a.name for a in attributes]
    has_labels = base_header == expected + ["class"]
    if not has_labels and base_header != expected:
        raise InputError(
            f"{args.data}: columns besides {args.field!r} must match the schema"
        )
    if not data_rows:
        raise InputError(f"{args.data}: no data rows")

    texts = []
    base_rows = []
    labels = [] if has_labels else None
    for r, row in enumerate(data_rows, start=2):
        if len(row) != len(header):
            raise InputError(f"{args.data}: row {r} has {len(row)} cells, expected {len(header)}")
        texts.append(row[fi])
        rest = row[:fi] + row[fi + 1 :]
        values = []
        for attr, cell in zip(attributes, rest):
            where = f"{args.data}: row {r}, column {attr.name!r}"
            values.append(parse_value(cell, attr, where))
        if has_labels:
            cls = rest[-1]
            if cls not in classes:
                raise InputError(f"{args.data}: row {r}, unknown class {cls!r}")
            labels.append(cls)
        base_rows.append(tuple(values))

    matrix, vocab = featurize_text(texts, top_n)
    taken = {a.name for a in attributes}
    new_attrs = []
    for term in vocab:
        name = f"{args.field}_{term}"
        if name in taken:
            raise InputError(f"derived column {name!r} collides with an attribute")
        new_attrs.append(
            Attribute(name=name, kind=AttributeKind.NUMERIC, text_field=args.field)
        )
    out_attrs = tuple(attributes) + tuple(new_attrs)
    out_rows = [
        base + tuple(float(v) for v in matrix[i])
        for i, base in enumerate(base_rows)
    ]
    out = Dataset(attributes=out_attrs, classes=classes, rows=out_rows, labels=labels)
    save_dataset(out, args.out_data)
    save_schema(args.out_schema, out_attrs, classes)
    _write_json(
        args.out_vocab,
        {"field": args.field, "top_n": top_n, "terms": list(vocab)},
    )
    print(f"added {len(vocab)} tf-idf columns from {args.field!r}")
    return 0


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def cmd_explain(args: argparse.Namespace) -> int:
    config = _load_config(args)
    k = int(_resolve(args, config, "k", 10))
    z = int(_resolve(args, config, "z", 10))
    n_synth = int(_resolve(args, config, "n-synth", 250))
    lam = float(_resolve(args, config, "lambda", 1.0, attr="lam"))
    min_support = int(_resolve(args, config, "min-support", 2))
    seed = int(_resolve(args, config, "seed", 0))
    threads = _resolve_threads(args, config)
    split_columns = _resolve(args, config, "split-columns", None)
    if isinstance(split_columns, str) and split_columns != "non-text":
        split_columns = [s.strip() for s in split_columns.split(",") if s.strip()]

    dataset = load_dataset(args.data, args.schema)
    enc = encode(dataset)
    bb, bb_tag = _load_bb(args, dataset.classes, enc.column_names)
    ns = _neighborhoods(
        enc,
        bb,
        bb_tag,
        z=z,
        n_synth=n_synth,
        seed=seed,
        threads=threads,
        cache_dir=getattr(args, "cache_dir", None),
    )
    partition = splitter.run(
        enc,
        K=k,
        lam=lam,
        min_support=min_support,
        threads=threads,
        split_columns=split_columns,
        ns=ns,
    )
    _write_json(args.out, splitter.partition_to_dict(partition, enc))
    if getattr(args, "curve", None):
        curve = [(1, partition.root_loss)] + [
            (t.iteration + 1, t.loss_after) for t in partition.trace
        ]
        evaluation.write_curve_csv(args.curve, curve)
    n = enc.n
    print(
        f"{len(partition.subgroups)} subgroups, "
        f"mse {partition.global_loss / n:.6g} "
        f"(started at {partition.root_loss / n:.6g}); wrote {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _partition_from_dump(dump: dict, enc, classes) -> tuple[Partition, float]:
    try:
        config = dump["config"]
        sub_dicts = dump["subgroups"]
        dumped_loss = float(dump["global_loss"])
        root_loss = float(dump["root_loss"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"partition file is missing required fields: {exc}") from exc
    if config.get("data_hash") != content_hash(enc):
        raise InputError("partition was computed on different data (content hash mismatch)")
    subgroups = []
    for sd in sub_dicts:
        model_d = sd["model"]
        if tuple(model_d["columns"]) != enc.column_names:
            raise InputError("subgroup model columns do not match the encoded dataset")
        if tuple(model_d["classes"]) != tuple(classes):
            raise InputError("subgroup model classes do not match the schema")
        model = WhiteBoxModel(
            coefficients=np.asarray(model_d["coefficients"], dtype=np.float64),
            intercepts=np.asarray(model_d["intercepts"], dtype=np.float64),
            lam=float(model_d["lambda"]),
            fitted_on=f"s{sd['id']}",
            n_samples=0,
        )
        subgroups.append(
            Subgroup(
                id=int(sd["id"]),
                members=np.asarray(sd["members"], dtype=np.int64),
                pattern=None,
                model=model,
                loss=float(sd["loss"]),
            )
        )
    partition = Partition(
        subgroups=subgroups,
        trace=[],
        root_loss=root_loss,
        global_loss=dumped_loss,
        config=config,
    )
    return partition, dumped_loss


def _check_dump_invariants(partition: Partition, enc, ns) -> None:
    k = int(partition.config.get("k", len(partition.subgroups)))
    if len(partition.subgroups) > k:
        raise InvariantError(
            f"{len(partition.subgroups)} subgroups exceed the budget K={k}"
        )
    seen = np.concatenate([sg.members for sg in partition.subgroups])
    if seen.size != enc.n or not np.array_equal(np.sort(seen), np.arange(enc.n)):
        raise InvariantError("subgroups do not disjointly cover the explained objects")
    recomputed = 0.0
    for sg in partition.subgroups:
        recomputed += subgroup_loss(ns, sg.members, sg.model)
    scale = max(1.0, abs(partition.global_loss))
    if abs(recomputed - partition.global_loss) > _LOSS_REL_TOL * scale:
        raise InvariantError(
            f"recomputed loss {recomputed!r} does not match the stored "
            f"loss {partition.global_loss!r}"
        )
    partition.global_loss = recomputed


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    threads = _resolve_threads(args, config)
    dataset = load_dataset(args.data, args.schema)
    enc = encode(dataset)
    dump = _read_json(args.partition, "partition")
    partition, _ = _partition_from_dump(dump, enc, dataset.classes)
    pconf = partition.config
    bb, bb_tag = _load_bb(args, dataset.classes, enc.column_names)
    ns = _neighborhoods(
        enc,
        bb,
        bb_tag,
        z=int(pconf["z"]),
        n_synth=int(pconf["n_synth"]),
        seed=int(pconf["seed"]),
        threads=threads,
        cache_dir=getattr(args, "cache_dir", None),
    )
    _check_dump_invariants(partition, enc, ns)
    curve = None
    trace = dump.get("trace") or []
    if trace:
        curve = [(1, partition.root_loss)] + [
            (int(t["iter"]) + 1, float(t["loss_after"])) for t in trace
        ]
    report = evaluation.build_report(
        partition, ns, enc.values, float(pconf["lambda"]), curve=curve
    )
    report["config"] = pconf
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(os.path.join(args.out_dir, "report.json"), report)
    with open(os.path.join(args.out_dir, "report.md"), "w", encoding="utf-8") as fh:
        fh.write(evaluation.render_report_md(report))
    if curve is not None:
        evaluation.write_curve_csv(os.path.join(args.out_dir, "curve.csv"), curve)
    m = report["mse"]
    print(
        f"mse: partition {m['splitsd4x']:.6g}, global {m['global_wb']:.6g}, "
        f"local {m['local_wb']:.6g}; wrote {args.out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sd4x",
        description="Subgroup-based summaries of black-box classifier decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset and black box")
    p_synth.add_argument("--spec", required=True, help="JSON description of the generator")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--config", default=None, help="JSON defaults; flags win")
    p_synth.set_defaults(func=cmd_synth)

    p_feat = sub.add_parser("featurize", help="expand a text column into tf-idf columns")
    p_feat.add_argument("--data", required=True)
    p_feat.add_argument("--schema", required=True)
    p_feat.add_argument("--field", required=True, help="name of the free-text CSV column")
    p_feat.add_argument("--top-n", type=int, default=None, dest="top_n")
    p_feat.add_argument("--out-data", required=True)
    p_feat.add_argument("--out-schema", required=True)
    p_feat.add_argument("--out-vocab", required=True)
    p_feat.add_argument("--config", default=None)
    p_feat.set_defaults(func=cmd_featurize)

    p_expl = sub.add_parser("explain", help="partition the explained objects")
    p_expl.add_argument("--data", required=True)
    p_expl.add_argument("--schema", required=True)
    p_expl.add_argument("--blackbox", default=None, help="JSON model file")
    p_expl.add_argument(
        "--blackbox-cmd", default=None, help="external command speaking the CSV protocol"
    )
    p_expl.add_argument("--k", type=int, default=None)
    p_expl.add_argument("--z", type=int, default=None)
    p_expl.add_argument("--n-synth", type=int, default=None, dest="n_synth")
    p_expl.add_argument("--lambda", type=float, default=None, dest="lam")
    p_expl.add_argument("--min-support", type=int, default=None, dest="min_support")
    p_expl.add_argument("--seed", type=int, default=None)
    p_expl.add_argument("--threads", type=int, default=None)
    p_expl.add_argument(
        "--split-columns",
        default=None,
        dest="split_columns",
        help="comma-separated column names, or non-text",
    )
    p_expl.add_argument("--cache-dir", default=None, dest="cache_dir")
    p_expl.add_argument("--curve", default=None, help="also write the loss curve CSV here")
    p_expl.add_argument("--out", required=True, help="partition JSON path")
    p_expl.add_argument("--config", default=None)
    p_expl.set_defaults(func=cmd_explain)

    p_eval = sub.add_parser("eval", help="score a dumped partition against baselines")
    p_eval.add_argument("--partition", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--schema", required=True)
    p_eval.add_argument("--blackbox", default=None)
    p_eval.add_argument("--blackbox-cmd", default=None)
    p_eval.add_argument("--threads", type=int, default=None)
    p_eval.add_argument("--cache-dir", default=None, dest="cache_dir")
    p_eval.add_argument("--out-dir", required=True)
    p_eval.add_argument("--config", default=None)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExternalBlackBoxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SD4XError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
