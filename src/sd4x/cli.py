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
import hashlib
import os
import shlex
import sys

import numpy as np

from . import evaluation, splitter
from .blackbox import ExternalBlackBox, load_blackbox, save_blackbox
from .dataset import (
    JSON_NAMES,
    NUMBER,
    TEXT_OR_LIST,
    Attribute,
    AttributeKind,
    Dataset,
    content_hash,
    encode,
    is_json,
    json_array,
    load_dataset,
    load_schema,
    read_dataset,
    read_json,
    save_dataset,
    save_schema,
    write_json,
)
from .errors import (
    ExternalBlackBoxError,
    InputError,
    InvariantError,
    SD4XError,
)
from .neighborhood import build, cache_key, label, load_cache, save_cache
from .splitter import Partition, Subgroup, TraceEntry
from .synth import generate_synthetic, spec_from_dict
from .text import featurize_text
from .whitebox import WhiteBoxModel, subgroup_loss

_LOSS_REL_TOL = 1e-6
# Every key a --config file may hold: those that synth, featurize,
# explain and eval read, so one file can serve all of them.
_CONFIG_KEYS = frozenset(
    ("seed", "top-n", "k", "z", "n-synth", "lambda", "min-support", "threads", "split-columns")
)


def _read_config(args: argparse.Namespace) -> dict:
    """The --config file's object, or {} without one; an unknown key is bad input."""
    if not args.config:
        return {}
    config = read_json(args.config, "config")
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise InputError("config: unknown key(s) " + ", ".join(map(repr, unknown)))
    return config


def _resolve(
    args: argparse.Namespace, config: dict, key: str, kind, default, attr: str | None = None
):
    """The flag's value if given, else the config's, else the default.

    A config value must be a JSON value of ``kind``; a number is returned
    as a float.
    """
    value = getattr(args, attr or key.replace("-", "_"), None)
    if value is not None:
        return value
    if key not in config:
        return default
    value = config[key]
    if not is_json(value, kind):
        raise InputError(f"config: {key} must be a JSON {JSON_NAMES[kind]}, got {value!r}")
    return float(value) if kind is NUMBER else value


def _resolve_threads(args: argparse.Namespace, config: dict) -> int:
    value = _resolve(args, config, "threads", int, None)
    if value is None:
        env = os.environ.get("SD4X_THREADS", "").strip()
        if env:
            try:
                value = int(env)
            except ValueError as exc:
                raise InputError(f"SD4X_THREADS must be an integer, got {env!r}") from exc
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise InputError(f"threads must be >= 1, got {value}")
    return value


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
    """Whether a cached set has the shapes and settings of this run."""
    G, C, _ = ns.grams
    d, p = enc.m + 1, len(bb.classes)
    return (
        G.shape == (enc.n, d, d)
        and C.shape == (enc.n, d, p)
        and ns.object_outputs.shape == (enc.n, p)
        and (ns.z, ns.n_synth, ns.seed) == (z, n_synth, seed)
    )


def _neighborhoods(enc, bb, bb_tag, *, z, n_synth, seed, threads, cache_dir):
    """Labeled neighborhoods with their Gram pieces, from the cache when it fits.

    A miss plans the neighborhoods and labels them on ``threads``
    workers, which draw, label and form the pieces one chunk of objects
    at a time and keep no rows, then writes the pieces to the cache
    when there is one.
    """
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        key = cache_key(content_hash(enc), seed, z, n_synth, bb_tag)
        path = os.path.join(cache_dir, f"ns-{key}.npz")
        cached = load_cache(path)
        if cached is not None and _cache_fits(cached, enc, bb, z, n_synth, seed):
            return cached
    ns = label(build(enc, z=z, n_synth=n_synth, seed=seed, threads=threads), bb)
    if cache_dir:
        save_cache(path, ns)
    return ns


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    config = _read_config(args)
    seed = _resolve(args, config, "seed", int, 0)
    spec = spec_from_dict(read_json(args.spec, "synthetic spec"))
    result = generate_synthetic(spec, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(result.dataset, os.path.join(args.out, "data.csv"))
    save_schema(
        os.path.join(args.out, "schema.json"),
        result.dataset.attributes,
        result.dataset.classes,
    )
    save_blackbox(os.path.join(args.out, "blackbox.json"), result.blackbox)
    write_json(os.path.join(args.out, "ground_truth.json"), result.ground_truth)
    print(f"wrote {result.dataset.n} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def cmd_featurize(args: argparse.Namespace) -> int:
    config = _read_config(args)
    top_n = _resolve(args, config, "top-n", int, 10)
    attributes, classes = load_schema(args.schema)
    base, texts = read_dataset(args.data, attributes, classes, text_field=args.field)
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
    out_rows = [row + tuple(float(v) for v in matrix[i]) for i, row in enumerate(base.rows)]
    out = Dataset(attributes=out_attrs, classes=classes, rows=out_rows, labels=base.labels)
    save_dataset(out, args.out_data)
    save_schema(args.out_schema, out_attrs, classes)
    write_json(
        args.out_vocab,
        {"field": args.field, "top_n": top_n, "terms": list(vocab)},
    )
    print(f"added {len(vocab)} tf-idf columns from {args.field!r}")
    return 0


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def cmd_explain(args: argparse.Namespace) -> int:
    config = _read_config(args)
    k = _resolve(args, config, "k", int, 10)
    z = _resolve(args, config, "z", int, 10)
    n_synth = _resolve(args, config, "n-synth", int, 250)
    lam = _resolve(args, config, "lambda", NUMBER, 1.0, attr="lam")
    min_support = _resolve(args, config, "min-support", int, 2)
    seed = _resolve(args, config, "seed", int, 0)
    threads = _resolve_threads(args, config)
    split_columns = _resolve(args, config, "split-columns", TEXT_OR_LIST, None)
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
    write_json(args.out, splitter.partition_to_dict(partition, enc))
    if getattr(args, "curve", None):
        evaluation.write_curve_csv(args.curve, partition.curve())
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


# Dumped trace keys in TraceEntry field order.
_TRACE_FIELDS = (
    ("iter", int), ("subgroup", int), ("column", str),
    ("threshold", NUMBER), ("gain", NUMBER), ("loss_after", NUMBER),
)


def _field(obj: dict, key: str, kind, where: str = ""):
    """obj[key] when it holds a JSON value of this kind; a bool is never a number.

    A number is returned as a float.
    """
    value = obj.get(key)
    if not is_json(value, kind):
        name = JSON_NAMES[kind]
        raise InputError(f"partition file: {where}{key} is missing or not a JSON {name}")
    return float(value) if kind is NUMBER else value


def _entries(dump: dict, key: str) -> list[dict]:
    entries = _field(dump, key, list)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputError(f"partition file: {key}[{i}] is not an object")
    return entries


def _array(obj: dict, key: str, shape: tuple[int, ...], where: str) -> np.ndarray:
    """obj[key] as a float array of the given shape; its entries must be JSON numbers."""
    arr = json_array(_field(obj, key, list, where))
    if arr is None or arr.shape != shape:
        raise InputError(f"partition file: {where}{key} must be a {shape} array of numbers")
    return arr


def _members(sd: dict, where: str) -> np.ndarray:
    members = _field(sd, "members", list, where)
    if not all(type(v) is int and 0 <= v < 2**63 for v in members):
        raise InputError(f"partition file: {where}members must be a flat list of indices")
    return np.asarray(members, dtype=np.int64)


def _partition_from_dump(dump: dict, enc, classes) -> Partition:
    """Rebuild the subgroups, models and trace of a dumped partition.

    Every field read here is type-checked, so a malformed file is bad
    input.  Whether the subgroups cover the objects within the budget
    and match their stored losses is left to ``_check_dump_invariants``.
    """
    config = _field(dump, "config", dict)
    for key in ("k", "z", "n_synth", "seed"):
        if _field(config, key, int, "config.") < 0:
            raise InputError(f"partition file: config.{key} is negative")
    if _field(config, "lambda", NUMBER, "config.") < 0:
        raise InputError("partition file: config.lambda is negative")
    if config.get("data_hash") != content_hash(enc):
        raise InputError("partition was computed on different data (content hash mismatch)")
    sub_dicts = _entries(dump, "subgroups")
    if not sub_dicts:
        raise InputError("partition file: subgroups is empty")
    p, m = len(classes), enc.m
    subgroups = []
    for i, sd in enumerate(sub_dicts):
        where = f"subgroups[{i}]."
        model_d = _field(sd, "model", dict, where)
        mwhere = where + "model."
        if tuple(_field(model_d, "columns", list, mwhere)) != enc.column_names:
            raise InputError("subgroup model columns do not match the encoded dataset")
        if tuple(_field(model_d, "classes", list, mwhere)) != tuple(classes):
            raise InputError("subgroup model classes do not match the schema")
        model = WhiteBoxModel(
            coefficients=_array(model_d, "coefficients", (p, m), mwhere),
            intercepts=_array(model_d, "intercepts", (p,), mwhere),
            lam=_field(model_d, "lambda", NUMBER, mwhere),
        )
        subgroups.append(
            Subgroup(
                id=_field(sd, "id", int, where),
                members=_members(sd, where),
                pattern=None,
                model=model,
                loss=_field(sd, "loss", NUMBER, where),
            )
        )
    trace = [
        TraceEntry(*(_field(td, key, kind, f"trace[{i}].") for key, kind in _TRACE_FIELDS))
        for i, td in enumerate(_entries(dump, "trace") if "trace" in dump else [])
    ]
    return Partition(
        subgroups=subgroups,
        trace=trace,
        root_loss=_field(dump, "root_loss", NUMBER),
        global_loss=_field(dump, "global_loss", NUMBER),
        config=config,
    )


def _check_dump_invariants(partition: Partition, enc, ns) -> None:
    """Cover and budget, then each dumped model's loss recomputed from the Gram pieces.

    Every subgroup's stored loss must match its own recomputed loss, and
    the stored total their sum, each within ``_LOSS_REL_TOL`` of
    max(1, |stored|).
    """
    splitter.check_cover(partition, enc.n)
    recomputed = 0.0
    for sg in partition.subgroups:
        loss = subgroup_loss(ns, sg.members, sg.model)
        if abs(loss - sg.loss) > _LOSS_REL_TOL * max(1.0, abs(sg.loss)):
            raise InvariantError(
                f"subgroup {sg.id}: recomputed loss {loss!r} does not match the "
                f"stored loss {sg.loss!r}"
            )
        recomputed += loss
    scale = max(1.0, abs(partition.global_loss))
    if abs(recomputed - partition.global_loss) > _LOSS_REL_TOL * scale:
        raise InvariantError(
            f"recomputed loss {recomputed!r} does not match the stored "
            f"loss {partition.global_loss!r}"
        )
    partition.global_loss = recomputed


def cmd_eval(args: argparse.Namespace) -> int:
    config = _read_config(args)
    threads = _resolve_threads(args, config)
    dataset = load_dataset(args.data, args.schema)
    enc = encode(dataset)
    dump = read_json(args.partition, "partition")
    partition = _partition_from_dump(dump, enc, dataset.classes)
    pconf = partition.config
    bb, bb_tag = _load_bb(args, dataset.classes, enc.column_names)
    ns = _neighborhoods(
        enc,
        bb,
        bb_tag,
        z=pconf["z"],
        n_synth=pconf["n_synth"],
        seed=pconf["seed"],
        threads=threads,
        cache_dir=getattr(args, "cache_dir", None),
    )
    _check_dump_invariants(partition, enc, ns)
    curve = partition.curve() if partition.trace else None
    report = evaluation.build_report(
        partition, ns, enc.values, float(pconf["lambda"]), curve=curve
    )
    report["config"] = pconf
    os.makedirs(args.out_dir, exist_ok=True)
    write_json(os.path.join(args.out_dir, "report.json"), report)
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


_CACHE_HELP = (
    "reuse each object's Gram pieces, keyed by the data, seed, z, n-synth "
    "and black box; with --blackbox-cmd the key holds only the command "
    "string, so clear this directory when the model behind it changes"
)


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
    p_expl.add_argument("--cache-dir", default=None, dest="cache_dir", help=_CACHE_HELP)
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
    p_eval.add_argument("--cache-dir", default=None, dest="cache_dir", help=_CACHE_HELP)
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
