"""Tabular schema handling, CSV loading, and one-hot encoding.

A dataset couples a schema (typed attributes plus class names) with raw
rows.  Attributes are numeric, boolean, ordinal (ordered categories) or
nominal (unordered categories).  Encoding maps each row to a float
vector: numeric values pass through, booleans map to 0/1, ordinals map
to their level index, and nominal attributes expand to one one-hot
column per category named ``attr=category``.
"""
from __future__ import annotations

import csv
import enum
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InputError


class AttributeKind(str, enum.Enum):
    NUMERIC = "numeric"
    BOOLEAN = "boolean"
    ORDINAL = "ordinal"
    NOMINAL = "nominal"


@dataclass(frozen=True)
class Attribute:
    """One schema attribute; categories are ascending levels for ordinals."""

    name: str
    kind: AttributeKind
    categories: tuple[str, ...] = ()
    text_field: str | None = None

    def __post_init__(self) -> None:
        if self.kind in (AttributeKind.ORDINAL, AttributeKind.NOMINAL):
            if len(self.categories) < 2:
                raise InputError(
                    f"attribute {self.name!r}: {self.kind.value} needs >= 2 categories"
                )
            if len(set(self.categories)) != len(self.categories):
                raise InputError(f"attribute {self.name!r}: duplicate categories")
        elif self.categories:
            raise InputError(
                f"attribute {self.name!r}: categories are only valid for "
                "ordinal or nominal attributes"
            )


@dataclass
class Dataset:
    attributes: tuple[Attribute, ...]
    classes: tuple[str, ...]
    rows: list[tuple]
    labels: list[str] | None = None

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class EncodedColumn:
    """One encoded column and its source attribute index."""

    name: str
    source: int
    kind: AttributeKind
    category: str | None = None


@dataclass
class EncodedMatrix:
    values: np.ndarray
    columns: tuple[EncodedColumn, ...]
    attributes: tuple[Attribute, ...]
    classes: tuple[str, ...]

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def m(self) -> int:
        return int(self.values.shape[1])

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)


# ---------------------------------------------------------------------------
# schema io
# ---------------------------------------------------------------------------

_KINDS = {k.value: k for k in AttributeKind}


def schema_from_dict(obj: dict) -> tuple[tuple[Attribute, ...], tuple[str, ...]]:
    if not isinstance(obj, dict):
        raise InputError("schema must be a JSON object")
    raw_attrs = obj.get("attributes")
    raw_classes = obj.get("classes")
    if not raw_attrs or not isinstance(raw_attrs, list):
        raise InputError("schema needs a non-empty 'attributes' list")
    if not raw_classes or not isinstance(raw_classes, list) or len(raw_classes) < 2:
        raise InputError("schema needs a 'classes' list with >= 2 entries")
    attrs = []
    for i, a in enumerate(raw_attrs):
        if not isinstance(a, dict) or "name" not in a or "kind" not in a:
            raise InputError(f"attribute #{i}: needs 'name' and 'kind'")
        kind = _KINDS.get(a["kind"])
        if kind is None:
            raise InputError(f"attribute {a['name']!r}: unknown kind {a['kind']!r}")
        attrs.append(
            Attribute(
                name=str(a["name"]),
                kind=kind,
                categories=tuple(str(c) for c in a.get("categories", ())),
                text_field=a.get("text_field"),
            )
        )
    names = [a.name for a in attrs]
    if len(set(names)) != len(names):
        raise InputError("duplicate attribute names in schema")
    columns = [c.name for c in encoded_columns(tuple(attrs))]
    for j, name in enumerate(columns):
        if name in columns[:j]:
            raise InputError(f"two attributes encode to the same column {name!r}")
    classes = tuple(str(c) for c in raw_classes)
    if len(set(classes)) != len(classes):
        raise InputError("duplicate class names in schema")
    return tuple(attrs), classes


def schema_to_dict(attributes: tuple[Attribute, ...], classes: tuple[str, ...]) -> dict:
    out = []
    for a in attributes:
        entry: dict = {"name": a.name, "kind": a.kind.value}
        if a.categories:
            entry["categories"] = list(a.categories)
        if a.text_field is not None:
            entry["text_field"] = a.text_field
        out.append(entry)
    return {"attributes": out, "classes": list(classes)}


def read_json(path: str, what: str) -> dict:
    """The JSON object in file ``path``; errors name the file as ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{what} file {path} must hold a JSON object")
    return obj


def write_json(path: str, obj: dict) -> None:
    """Write ``obj`` as UTF-8 JSON, indented by 2, keys sorted, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_schema(path: str) -> tuple[tuple[Attribute, ...], tuple[str, ...]]:
    return schema_from_dict(read_json(path, "schema"))


def save_schema(path: str, attributes: tuple[Attribute, ...], classes: tuple[str, ...]) -> None:
    write_json(path, schema_to_dict(attributes, classes))


# ---------------------------------------------------------------------------
# row parsing
# ---------------------------------------------------------------------------

_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _cell_parser(attr: Attribute):
    """The function that turns one CSV cell into the attribute's value.

    It raises ValueError or KeyError on a cell that does not fit;
    :func:`_misfit` says why.
    """
    if attr.kind is AttributeKind.NUMERIC:
        return float
    if attr.kind is AttributeKind.BOOLEAN:
        return lambda cell: _BOOLEANS[cell.strip().lower()]
    return {c: c for c in attr.categories}.__getitem__


def _misfit(value, attr: Attribute) -> str:
    """The error text for a cell or value that is not of the attribute's kind."""
    if attr.kind is AttributeKind.NUMERIC:
        return f"{value!r} is not numeric"
    if attr.kind is AttributeKind.BOOLEAN:
        return f"{value!r} is not a boolean"
    return f"{value!r} is not one of {list(attr.categories)}"


def _value_error(value, attr: Attribute) -> str | None:
    """Why an already-typed value does not fit its attribute, or None."""
    if attr.kind is AttributeKind.NUMERIC:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return _misfit(value, attr)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        return None if finite else f"{value!r} is not finite"
    if attr.kind is AttributeKind.BOOLEAN:
        return None if isinstance(value, (bool, np.bool_)) else _misfit(value, attr)
    return None if value in attr.categories else _misfit(value, attr)


def _column_fits(values: tuple, attr: Attribute) -> bool:
    """True when every value fits the attribute, in one pass over the column.

    False when some value may not; :func:`_value_error` then finds it.
    """
    types = set(map(type, values))
    if attr.kind is AttributeKind.NUMERIC:
        if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types):
            return False
        try:
            return bool(np.isfinite(np.array(values, dtype=np.float64)).all())
        except OverflowError:  # an int beyond the float range
            return False
    if attr.kind is AttributeKind.BOOLEAN:
        return all(issubclass(t, (bool, np.bool_)) for t in types)
    try:
        return set(values) <= set(attr.categories)
    except TypeError:  # an unhashable value
        return False


def read_dataset(
    data_path: str,
    attributes: tuple[Attribute, ...],
    classes: tuple[str, ...],
    text_field: str | None = None,
) -> tuple[Dataset, list[str] | None]:
    """Read a CSV data file against a schema; returns (dataset, texts).

    The header must name the attributes in schema order, optionally
    followed by ``class``.  Blank lines are skipped; rows are numbered
    from the first line after the header.  With ``text_field`` set, that
    column is cut from the header and from every row before parsing, and
    its cells are returned as ``texts`` (None otherwise).
    """
    try:
        with open(data_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{data_path}: empty data file")
            fi = None
            if text_field is not None:
                if text_field not in header:
                    raise InputError(f"{data_path}: no column named {text_field!r}")
                fi = header.index(text_field)
                header = header[:fi] + header[fi + 1 :]
            expected = [a.name for a in attributes]
            has_class = False
            if header == expected + ["class"]:
                has_class = True
            elif header != expected:
                raise InputError(
                    f"{data_path}: header {header} does not match schema "
                    f"attributes {expected} (optionally followed by 'class')"
                )
            want = len(header) + (0 if fi is None else 1)
            parsers = [_cell_parser(attr) for attr in attributes]
            rows: list[tuple] = []
            labels: list[str] = []
            texts: list[str] = []
            for lineno, cells in enumerate(reader, start=1):
                if not cells:
                    continue
                if len(cells) != want:
                    raise InputError(
                        f"{data_path}: row {lineno}: expected {want} cells, got {len(cells)}"
                    )
                if fi is not None:
                    texts.append(cells[fi])
                    cells = cells[:fi] + cells[fi + 1 :]
                row = []
                for attr, parse, cell in zip(attributes, parsers, cells):
                    try:
                        row.append(parse(cell))
                    except (KeyError, ValueError):
                        raise InputError(
                            f"{data_path}: row {lineno}, column {attr.name!r}: "
                            f"{_misfit(cell, attr)}"
                        ) from None
                rows.append(tuple(row))
                if has_class:
                    label = cells[-1]
                    if label not in classes:
                        raise InputError(
                            f"{data_path}: row {lineno}, column 'class': {label!r} "
                            f"is not one of {list(classes)}"
                        )
                    labels.append(label)
    except OSError as exc:
        raise InputError(f"cannot read {data_path}: {exc}") from exc
    if not rows:
        raise InputError(f"{data_path}: no data rows")
    dataset = Dataset(attributes, classes, rows, labels if has_class else None)
    return dataset, (texts if fi is not None else None)


def load_dataset(data_path: str, schema_path: str) -> Dataset:
    """Load a CSV data file against its JSON schema."""
    return read_dataset(data_path, *load_schema(schema_path))[0]


def format_value(value, attr: Attribute) -> str:
    if attr.kind is AttributeKind.BOOLEAN:
        return "True" if value else "False"
    if attr.kind is AttributeKind.NUMERIC:
        return repr(float(value))
    return str(value)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset back to CSV, with a class column when labels exist."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [a.name for a in dataset.attributes]
        if dataset.labels is not None:
            header.append("class")
        writer.writerow(header)
        for i, row in enumerate(dataset.rows):
            cells = [format_value(v, a) for v, a in zip(row, dataset.attributes)]
            if dataset.labels is not None:
                cells.append(dataset.labels[i])
            writer.writerow(cells)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def encoded_columns(attributes: tuple[Attribute, ...]) -> tuple[EncodedColumn, ...]:
    cols: list[EncodedColumn] = []
    for i, attr in enumerate(attributes):
        if attr.kind is AttributeKind.NOMINAL:
            for cat in attr.categories:
                cols.append(EncodedColumn(f"{attr.name}={cat}", i, attr.kind, cat))
        else:
            cols.append(EncodedColumn(attr.name, i, attr.kind))
    return tuple(cols)


def attribute_slices(attributes: tuple[Attribute, ...]) -> tuple[slice, ...]:
    """Each attribute's slice of the encoded columns, in attribute order.

    One column per attribute, or one per category of a nominal one.
    """
    sources = [c.source for c in encoded_columns(attributes)]
    return tuple(
        slice(bisect_left(sources, i), bisect_right(sources, i))
        for i in range(len(attributes))
    )


def encode(dataset: Dataset) -> EncodedMatrix:
    """Encode all rows to the float design matrix."""
    attributes, rows = dataset.attributes, dataset.rows
    # The first misfit in row order: a row of the wrong length, or else
    # the first bad cell, by row and then column, of the rows before it.
    short = next((i for i, row in enumerate(rows) if len(row) != len(attributes)), len(rows))
    bad = None
    for c, (attr, values) in enumerate(zip(attributes, zip(*rows[:short]))):
        if not _column_fits(values, attr):
            i = next((i for i, v in enumerate(values) if _value_error(v, attr) is not None), None)
            if i is not None and (bad is None or i < bad[0]):
                bad = (i, c)
    if bad is not None:
        i, c = bad
        problem = _value_error(rows[i][c], attributes[c])
        raise InputError(f"row {i + 1}, column {attributes[c].name!r}: {problem}")
    if short < len(rows):
        raise InputError(
            f"row {short + 1}: expected {len(attributes)} values, got {len(rows[short])}"
        )
    cols = encoded_columns(dataset.attributes)
    values = np.zeros((dataset.n, len(cols)), dtype=np.float64)
    for j, col in enumerate(cols):
        attr = dataset.attributes[col.source]
        if attr.kind is AttributeKind.NUMERIC:
            values[:, j] = [float(r[col.source]) for r in dataset.rows]
        elif attr.kind is AttributeKind.BOOLEAN:
            values[:, j] = [1.0 if r[col.source] else 0.0 for r in dataset.rows]
        elif attr.kind is AttributeKind.ORDINAL:
            level = {c: k for k, c in enumerate(attr.categories)}
            values[:, j] = [float(level[r[col.source]]) for r in dataset.rows]
        else:
            values[:, j] = [1.0 if r[col.source] == col.category else 0.0 for r in dataset.rows]
    return EncodedMatrix(values, cols, dataset.attributes, dataset.classes)


def content_hash(enc: EncodedMatrix) -> str:
    """Stable sha256 over the encoded values, column names, and classes."""
    import hashlib

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(enc.values, dtype=np.float64).tobytes())
    for name in enc.column_names:
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
    for cls in enc.classes:
        h.update(cls.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()
