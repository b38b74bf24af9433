from __future__ import annotations

import numpy as np
import pytest

from sd4x.dataset import (
    Attribute,
    AttributeKind,
    Dataset,
    attribute_slices,
    content_hash,
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
    assert toy_enc.values.tolist() == [
        [0.7, 0.0, 0.4, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 60.0],
        [0.0, 0.8, 0.3, 0.0, 0.0, 1.0, 3.0, 1.0, 0.0, 4.0, 50.0],
        [0.5, 0.0, 0.0, 0.0, 0.6, 1.0, 2.0, 0.0, 1.0, 0.0, 60.0],
        [0.0, 0.5, 0.9, 0.6, 0.0, 1.0, 3.0, 0.0, 1.0, 3.0, 97.0],
        [0.0, 0.7, 0.6, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 3.0, 96.0],
        [0.1, 0.0, 0.0, 0.6, 0.6, 0.0, 2.0, 1.0, 0.0, 2.0, 85.0],
        [0.1, 0.0, 0.0, 0.0, 0.9, 0.0, 1.0, 1.0, 0.0, 0.0, 60.0],
    ]


def test_decode_round_trip(toy, toy_enc):
    """Each raw row reads back from its encoded row, one attribute slice at a time."""
    slices = attribute_slices(toy_enc.attributes)
    for i, row in enumerate(toy.rows):
        vec = toy_enc.values[i]
        back = []
        for attr, sl in zip(toy_enc.attributes, slices):
            block = vec[sl]
            if attr.kind is AttributeKind.NUMERIC:
                back.append(float(block[0]))
            elif attr.kind is AttributeKind.BOOLEAN:
                assert block[0] in (0.0, 1.0)
                back.append(bool(block[0]))
            elif attr.kind is AttributeKind.ORDINAL:
                back.append(attr.categories[int(block[0])])
            else:
                assert sorted(block.tolist()) == [0.0] * (len(block) - 1) + [1.0]
                hot = toy_enc.columns[sl][int(np.argmax(block))]
                back.append(hot.category)
        assert tuple(back) == row


def test_attribute_slices_follow_encoded_columns(toy_enc):
    slices = attribute_slices(toy_enc.attributes)
    assert [(sl.start, sl.stop) for sl in slices] == [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 9), (9, 10), (10, 11)
    ]
    for i, sl in enumerate(slices):
        assert all(c.source == i for c in toy_enc.columns[sl])


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


_MSG_SCHEMA = {
    "attributes": [
        {"name": "num", "kind": "numeric"},
        {"name": "flag", "kind": "boolean"},
        {"name": "level", "kind": "ordinal", "categories": ["lo", "hi"]},
        {"name": "color", "kind": "nominal", "categories": ["red", "blue"]},
    ],
    "classes": ["a", "b"],
}


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.5,true,lo,red,a,extra", "row 3: expected 5 cells, got 6"),
        ("x1,true,lo,red,a", "row 3, column 'num': 'x1' is not numeric"),
        ("1.5,yes,lo,red,a", "row 3, column 'flag': 'yes' is not a boolean"),
        ("1.5,true,mid,red,a", "row 3, column 'level': 'mid' is not one of ['lo', 'hi']"),
        ("1.5,true,lo,Red,a", "row 3, column 'color': 'Red' is not one of ['red', 'blue']"),
        ("1.5,true,lo,red,c", "row 3, column 'class': 'c' is not one of ['a', 'b']"),
    ],
)
def test_read_dataset_errors_name_the_file_row_and_column(tmp_path, row, message):
    # Blank lines are skipped but counted: the bad row is the third after the header.
    attributes, classes = schema_from_dict(_MSG_SCHEMA)
    path = tmp_path / "data.csv"
    path.write_text("num,flag,level,color,class\n0.5, False ,hi,blue,b\n\n" + row + "\n")
    with pytest.raises(InputError) as err:
        read_dataset(str(path), attributes, classes)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "row, message",
    [
        ((1.5, True, "lo"), "row 2: expected 4 values, got 3"),
        (("1.5", True, "lo", "red"), "row 2, column 'num': '1.5' is not numeric"),
        ((True, True, "lo", "red"), "row 2, column 'num': True is not numeric"),
        ((float("nan"), True, "lo", "red"), "row 2, column 'num': nan is not finite"),
        ((-float("inf"), True, "lo", "red"), "row 2, column 'num': -inf is not finite"),
        ((10**400, True, "lo", "red"), f"row 2, column 'num': {10**400} is not finite"),
        ((1.5, 1, "lo", "red"), "row 2, column 'flag': 1 is not a boolean"),
        ((1.5, True, "mid", "red"), "row 2, column 'level': 'mid' is not one of ['lo', 'hi']"),
        ((1.5, True, "lo", None), "row 2, column 'color': None is not one of ['red', 'blue']"),
    ],
)
def test_encode_errors_name_the_row_and_column(row, message):
    attributes, classes = schema_from_dict(_MSG_SCHEMA)
    good = (np.float64(0.5), np.bool_(False), "hi", "blue")
    with pytest.raises(InputError) as err:
        encode(Dataset(attributes, classes, [good, row]))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        # A later column's bad cell in an earlier row is named first.
        (
            [(1.5, True, "lo", "Red"), ("x", True, "mid", "red")],
            "row 2, column 'color': 'Red' is not one of ['red', 'blue']",
        ),
        # Two bad cells in one row: the first column is named.
        (
            [(1.5, True, "lo", "red"), (float("inf"), 1, "lo", "red")],
            "row 3, column 'num': inf is not finite",
        ),
        # A short row after a bad cell, and a bad cell after a short row.
        ([(1.5, "yes", "lo", "red"), (1.5,)], "row 2, column 'flag': 'yes' is not a boolean"),
        ([(1.5, True), (1.5, True, "lo", [])], "row 2: expected 4 values, got 2"),
    ],
)
def test_encode_names_the_first_bad_cell_in_row_order(rows, message):
    attributes, classes = schema_from_dict(_MSG_SCHEMA)
    good = (0.5, False, "hi", "blue")
    with pytest.raises(InputError) as err:
        encode(Dataset(attributes, classes, [good] + rows))
    assert str(err.value) == message
