from __future__ import annotations

import numpy as np
import pytest

from sd4x.dataset import (
    Attribute,
    AttributeKind,
    Dataset,
    content_hash,
    decode_row,
    encode,
    encoded_columns,
    format_value,
    load_dataset,
    load_schema,
    read_dataset,
    save_dataset,
    save_schema,
    schema_from_dict,
)
from sd4x.errors import InputError

from conftest import TOY_CSV, TOY_SCHEMA


def test_schema_round_trip(tmp_path):
    attributes, classes = load_schema(TOY_SCHEMA)
    assert classes == ("TEC", "OT")
    assert len(attributes) == 10
    assert attributes[5].kind is AttributeKind.BOOLEAN
    assert attributes[7].categories == ("Sales", "Factory")
    out = tmp_path / "schema.json"
    save_schema(str(out), attributes, classes)
    again = load_schema(str(out))
    assert again == (attributes, classes)


@pytest.mark.parametrize(
    "obj",
    [
        {"attributes": [{"name": "a", "kind": "numeric"}], "classes": ["x"]},
        {"attributes": [], "classes": ["x", "y"]},
        {
            "attributes": [
                {"name": "a", "kind": "numeric"},
                {"name": "a", "kind": "boolean"},
            ],
            "classes": ["x", "y"],
        },
        {"attributes": [{"name": "a", "kind": "ordinal", "categories": ["only"]}], "classes": ["x", "y"]},
        {"attributes": [{"name": "a", "kind": "mystery"}], "classes": ["x", "y"]},
        {"attributes": [{"name": "a", "kind": "numeric", "categories": ["spurious", "extra"]}], "classes": ["x", "y"]},
    ],
)
def test_bad_schema_rejected(obj):
    with pytest.raises(InputError):
        schema_from_dict(obj)


def test_load_toy_dataset(toy):
    assert toy.n == 7
    assert toy.labels == ["TEC", "TEC", "TEC", "OT", "OT", "OT", "OT"]
    assert toy.rows[1][1] == 0.8
    assert toy.rows[0][5] is True
    assert toy.rows[4][5] is False
    assert toy.rows[1][8] == "Blocker"
    assert toy.rows[3][7] == "Factory"


def test_encoding_layout(toy_enc):
    names = toy_enc.column_names
    assert names == (
        "disk",
        "swap",
        "full",
        "java",
        "http",
        "weekend",
        "Soft. version",
        "Soft. type=Sales",
        "Soft. type=Factory",
        "Memory usage",
        "% used heap",
    )
    assert toy_enc.n == 7 and toy_enc.m == 11
    o2 = toy_enc.values[1]
    assert o2[1] == 0.8
    assert o2[5] == 1.0
    assert o2[7] == 1.0 and o2[8] == 0.0
    assert o2[9] == 4.0
    o4 = toy_enc.values[3]
    assert o4[7] == 0.0 and o4[8] == 1.0
    assert o4[9] == 3.0


def test_decode_round_trip(toy, toy_enc):
    for i, row in enumerate(toy.rows):
        assert decode_row(toy_enc.values[i], toy_enc) == row


def test_decode_rejects_broken_blocks(toy_enc):
    vec = toy_enc.values[0].copy()
    vec[7] = 1.0
    vec[8] = 1.0
    with pytest.raises(InputError):
        decode_row(vec, toy_enc)
    vec = toy_enc.values[0].copy()
    vec[5] = 0.25
    with pytest.raises(InputError):
        decode_row(vec, toy_enc)
    vec = toy_enc.values[0].copy()
    vec[9] = 9.0
    with pytest.raises(InputError):
        decode_row(vec, toy_enc)


def test_load_errors_name_row_and_column(tmp_path):
    schema = TOY_SCHEMA
    bad = tmp_path / "bad.csv"
    with open(TOY_CSV) as fh:
        lines = fh.read().splitlines()
    lines[2] = lines[2].replace("0.8", "eight")
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as err:
        load_dataset(str(bad), schema)
    assert "row 2" in str(err.value) and "swap" in str(err.value)

    wrong_header = tmp_path / "hdr.csv"
    wrong_header.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
        load_dataset(str(wrong_header), schema)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError):
        load_dataset(str(empty), schema)

    header_only = tmp_path / "only.csv"
    with open(TOY_CSV) as fh:
        header_only.write_text(fh.readline())
    with pytest.raises(InputError):
        load_dataset(str(header_only), schema)


def test_unknown_category_and_class_rejected(tmp_path):
    with open(TOY_CSV) as fh:
        lines = fh.read().splitlines()
    bad = tmp_path / "cat.csv"
    bad.write_text("\n".join([lines[0], lines[1].replace("Sales", "Rentals")]) + "\n")
    with pytest.raises(InputError):
        load_dataset(str(bad), TOY_SCHEMA)
    bad2 = tmp_path / "cls.csv"
    bad2.write_text("\n".join([lines[0], lines[1].replace("TEC", "ZZZ")]) + "\n")
    with pytest.raises(InputError):
        load_dataset(str(bad2), TOY_SCHEMA)


def test_dataset_without_class_column(tmp_path):
    with open(TOY_CSV) as fh:
        lines = [ln.rsplit(",", 1)[0] for ln in fh.read().splitlines()]
    unlabeled = tmp_path / "nolabel.csv"
    unlabeled.write_text("\n".join(lines) + "\n")
    ds = load_dataset(str(unlabeled), TOY_SCHEMA)
    assert ds.labels is None
    assert ds.n == 7


def test_read_dataset_cuts_the_text_column(tmp_path, toy):
    # the text column sits between two attributes; the rest parses as usual
    with open(TOY_CSV) as fh:
        lines = [ln.split(",") for ln in fh.read().splitlines()]
    texts = [f"note {i}" for i in range(1, len(lines))]
    for cells, text in zip(lines, ["note"] + texts):
        cells.insert(3, text)
    with_text = tmp_path / "with_text.csv"
    with_text.write_text("\n".join(",".join(c) for c in lines) + "\n")
    attributes, classes = load_schema(TOY_SCHEMA)
    ds, got = read_dataset(str(with_text), attributes, classes, text_field="note")
    assert got == texts
    assert (ds.rows, ds.labels) == (toy.rows, toy.labels)
    assert read_dataset(TOY_CSV, attributes, classes)[1] is None
    with pytest.raises(InputError, match="no column named 'body'"):
        read_dataset(str(with_text), attributes, classes, text_field="body")


def test_save_load_round_trip(tmp_path, toy):
    out = tmp_path / "copy.csv"
    save_dataset(toy, str(out))
    again = load_dataset(str(out), TOY_SCHEMA)
    assert again.rows == toy.rows
    assert again.labels == toy.labels


def test_format_value():
    num = Attribute("n", AttributeKind.NUMERIC)
    boo = Attribute("b", AttributeKind.BOOLEAN)
    assert format_value(True, boo) == "True"
    assert format_value(False, boo) == "False"
    assert format_value(0.5, num) == "0.5"


def test_boolean_parse_accepts_numeric_forms(tmp_path):
    with open(TOY_CSV) as fh:
        lines = fh.read().splitlines()
    variant = tmp_path / "boolforms.csv"
    row = lines[1].split(",")
    row[5] = "1"
    variant.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    ds = load_dataset(str(variant), TOY_SCHEMA)
    assert ds.rows[0][5] is True


def test_content_hash_tracks_values(toy_enc):
    h1 = content_hash(toy_enc)
    assert h1 == content_hash(toy_enc)
    bumped = toy_enc.values.copy()
    bumped[0, 0] += 1.0
    from sd4x.dataset import EncodedMatrix

    other = EncodedMatrix(
        values=bumped,
        columns=toy_enc.columns,
        attributes=toy_enc.attributes,
        classes=toy_enc.classes,
    )
    assert content_hash(other) != h1


def test_encoded_columns_sources():
    attrs = (
        Attribute("x", AttributeKind.NUMERIC),
        Attribute("t", AttributeKind.NOMINAL, categories=("a", "b", "c")),
        Attribute("o", AttributeKind.ORDINAL, categories=("l", "h")),
    )
    cols = encoded_columns(attrs)
    assert [c.name for c in cols] == ["x", "t=a", "t=b", "t=c", "o"]
    assert [c.source for c in cols] == [0, 1, 1, 1, 2]
    assert cols[1].category == "a"
