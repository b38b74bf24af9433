from __future__ import annotations

import math

import numpy as np
import pytest

from sd4x.dataset import Attribute, AttributeKind, encoded_columns
from sd4x.errors import InputError, PatternError
from sd4x.patterns import (
    UNRESTRICTED,
    BoolSubset,
    CategorySubset,
    Interval,
    Pattern,
    canonical,
    closed_form,
    covers,
    extent,
    most_restrictive,
    pattern_to_conditions,
    refine,
    render,
)


def test_interval_validation_and_containment():
    with pytest.raises(PatternError):
        Interval(3.0, 1.0)
    with pytest.raises(PatternError):
        Interval(2.0, 2.0, lo_open=True)
    with pytest.raises(PatternError):
        Interval(math.nan, 1.0)
    iv = Interval(50.0, 96.0, lo_open=True)
    assert not iv.contains(50.0)
    assert iv.contains(50.0001)
    assert iv.contains(96.0)
    assert not iv.contains(96.0001)


def test_most_restrictive_on_two_objects(toy):
    subset = [toy.rows[0], toy.rows[1]]
    delta = most_restrictive(subset, toy.attributes)
    r = delta.restrictions
    assert r[0] == Interval(0.0, 0.7)
    assert r[1] == Interval(0.0, 0.8)
    assert r[5] == BoolSubset(frozenset({1}))
    assert r[7] == CategorySubset(frozenset({"Sales"}))
    assert r[8] == Interval(0.0, 4.0)
    assert r[9] == Interval(50.0, 60.0)
    for row in subset:
        assert covers(delta, row, toy.attributes)
    assert not covers(delta, toy.rows[4], toy.attributes)


def test_most_restrictive_empty_set_rejected(toy):
    with pytest.raises(PatternError):
        most_restrictive([], toy.attributes)


def test_extent_matches_manual_filter(toy):
    m = len(toy.attributes)
    restrictions = [UNRESTRICTED] * m
    restrictions[5] = BoolSubset(frozenset({1}))
    restrictions[3] = Interval(-math.inf, 0.3, lo_open=True)
    pattern = Pattern(tuple(restrictions))
    assert extent(pattern, toy.rows, toy.attributes).tolist() == [0, 1, 2]


def test_refine_numeric_and_boolean(toy, toy_enc):
    m = len(toy.attributes)
    top = Pattern.unrestricted(m)
    cols = toy_enc.columns
    p1 = refine(top, toy.attributes, cols[5], "gt", 0.5)
    assert p1.restrictions[5] == BoolSubset(frozenset({1}))
    p2 = refine(p1, toy.attributes, cols[3], "le", 0.3)
    iv = p2.restrictions[3]
    assert isinstance(iv, Interval) and iv.hi == 0.3 and not iv.hi_open
    assert extent(p2, toy.rows, toy.attributes).tolist() == [0, 1, 2]
    # further tightening from the right keeps the stricter bound
    p3 = refine(p2, toy.attributes, cols[3], "le", 0.9)
    assert p3.restrictions[3] == iv
    with pytest.raises(PatternError):
        refine(p1, toy.attributes, cols[5], "le", 0.5)


def test_refine_one_hot_and_ordinal(toy, toy_enc):
    m = len(toy.attributes)
    top = Pattern.unrestricted(m)
    cols = toy_enc.columns
    sales_col = cols[7]
    assert sales_col.name == "Soft. type=Sales"
    fixed = refine(top, toy.attributes, sales_col, "gt", 0.5)
    assert fixed.restrictions[7] == CategorySubset(frozenset({"Sales"}))
    dropped = refine(top, toy.attributes, sales_col, "le", 0.5)
    assert dropped.restrictions[7] == CategorySubset(frozenset({"Factory"}))
    with pytest.raises(PatternError):
        refine(fixed, toy.attributes, sales_col, "le", 0.5)

    mem = cols[9]
    assert mem.name == "Memory usage"
    low = refine(top, toy.attributes, mem, "le", 2.5)
    assert extent(low, toy.rows, toy.attributes).tolist() == [0, 2, 5, 6]
    with pytest.raises(PatternError):
        refine(low, toy.attributes, mem, "gt", 3.5)


def test_closed_form_projects_onto_split_path(toy, toy_enc):
    m = len(toy.attributes)
    top = Pattern.unrestricted(m)
    cols = toy_enc.columns
    path = refine(
        refine(top, toy.attributes, cols[5], "gt", 0.5),
        toy.attributes,
        cols[3],
        "le",
        0.3,
    )
    members = [toy.rows[i] for i in (0, 1, 2)]
    closed = closed_form(path, members, toy.attributes)
    assert closed.restricted_indices() == (3, 5)
    assert closed.restrictions[3] == Interval(0.0, 0.0)
    assert closed.restrictions[5] == BoolSubset(frozenset({1}))


def test_canonical_drops_full_domain_restrictions(toy):
    m = len(toy.attributes)
    restrictions = [UNRESTRICTED] * m
    restrictions[7] = CategorySubset(frozenset({"Sales", "Factory"}))
    restrictions[5] = BoolSubset(frozenset({0, 1}))
    pattern = Pattern(tuple(restrictions))
    assert canonical(pattern, toy.attributes).restricted_indices() == ()


def test_render_forms(toy):
    m = len(toy.attributes)
    assert render(Pattern.unrestricted(m), toy.attributes) == "⊤"
    restrictions = [UNRESTRICTED] * m
    restrictions[9] = Interval(50.0, 96.0, lo_open=True)
    restrictions[5] = BoolSubset(frozenset({1}))
    restrictions[7] = CategorySubset(frozenset({"Sales"}))
    text = render(Pattern(tuple(restrictions)), toy.attributes)
    assert "weekend = True" in text
    assert "Soft. type = Sales" in text
    assert "% used heap ∈ (50, 96]" in text
    assert " ∧ " in text

    restrictions = [UNRESTRICTED] * m
    restrictions[8] = Interval(1.0, 3.0)
    text = render(Pattern(tuple(restrictions)), toy.attributes)
    assert "Memory usage ∈ [Info, Critical]" in text
    restrictions[8] = Interval(2.0, 4.0)
    assert "Memory usage ≥ Alarm" in render(Pattern(tuple(restrictions)), toy.attributes)
    restrictions[8] = Interval(3.0, 3.0)
    assert "Memory usage = Critical" in render(Pattern(tuple(restrictions)), toy.attributes)
    restrictions[8] = Interval(-math.inf, 2.0, lo_open=True)
    assert "Memory usage ≤ Alarm" in render(Pattern(tuple(restrictions)), toy.attributes)

    restrictions = [UNRESTRICTED] * m
    restrictions[0] = Interval(0.5, 0.5)
    assert "disk = 0.5" in render(Pattern(tuple(restrictions)), toy.attributes)
    restrictions[0] = Interval(-math.inf, 0.5, lo_open=True, hi_open=True)
    assert "disk < 0.5" in render(Pattern(tuple(restrictions)), toy.attributes)
    restrictions[0] = Interval(0.5, math.inf, lo_open=False, hi_open=True)
    assert "disk ≥ 0.5" in render(Pattern(tuple(restrictions)), toy.attributes)


def test_integer_valued_floats_render_without_decimals(toy):
    m = len(toy.attributes)
    restrictions = [UNRESTRICTED] * m
    restrictions[9] = Interval(50.0, 60.0)
    text = render(Pattern(tuple(restrictions)), toy.attributes)
    assert "[50, 60]" in text


def test_pattern_to_conditions(toy):
    m = len(toy.attributes)
    restrictions = [UNRESTRICTED] * m
    restrictions[0] = Interval(-math.inf, 0.4, lo_open=True)
    restrictions[1] = Interval(0.2, math.inf, lo_open=True, hi_open=True)
    restrictions[9] = Interval(50.0, 96.0, lo_open=True)
    restrictions[5] = BoolSubset(frozenset({1}))
    restrictions[7] = CategorySubset(frozenset({"Sales"}))
    restrictions[8] = Interval(3.0, 3.0)
    conds = pattern_to_conditions(Pattern(tuple(restrictions)), toy.attributes)
    by_attr = {}
    for c in conds:
        by_attr.setdefault(c["attribute"], []).append(c)
    assert by_attr["disk"] == [{"attribute": "disk", "op": "le", "value": 0.4}]
    assert by_attr["swap"] == [{"attribute": "swap", "op": "gt", "value": 0.2}]
    heap = sorted(by_attr["% used heap"], key=lambda c: c["op"])
    assert heap == [
        {"attribute": "% used heap", "op": "gt", "value": 50.0},
        {"attribute": "% used heap", "op": "le", "value": 96.0},
    ]
    assert by_attr["weekend"] == [{"attribute": "weekend", "op": "eq", "value": True}]
    assert by_attr["Memory usage"] == [
        {"attribute": "Memory usage", "op": "eq", "value": 3}
    ]
    assert by_attr["Soft. type"] == [
        {"attribute": "Soft. type", "op": "eq", "value": "Sales"}
    ]


def test_multi_category_subset_serializes_as_in():
    attrs = (
        Attribute("hue", AttributeKind.NOMINAL, categories=("red", "green", "blue")),
    )
    pattern = Pattern((CategorySubset(frozenset({"red", "blue"})),))
    conds = pattern_to_conditions(pattern, attrs)
    assert len(conds) == 1
    assert conds[0]["op"] == "in"
    assert sorted(conds[0]["value"]) == ["blue", "red"]
    # the full set is no restriction at all
    full = Pattern((CategorySubset(frozenset({"red", "green", "blue"})),))
    assert pattern_to_conditions(full, attrs) == []


def test_covers_respects_open_bounds(toy):
    m = len(toy.attributes)
    restrictions = [UNRESTRICTED] * m
    restrictions[9] = Interval(50.0, 96.0, lo_open=True)
    pattern = Pattern(tuple(restrictions))
    # o2 sits exactly on the open lower bound (50) and is excluded
    assert not covers(pattern, toy.rows[1], toy.attributes)
    assert covers(pattern, toy.rows[4], toy.attributes)


def test_refine_rejects_bad_side(toy, toy_enc):
    top = Pattern.unrestricted(len(toy.attributes))
    with pytest.raises(InputError):
        refine(top, toy.attributes, toy_enc.columns[0], "ge", 0.5)
