from __future__ import annotations

import math

import numpy as np
import pytest

from sd4x.dataset import Attribute, AttributeKind, encode, encoded_columns
from sd4x.errors import InputError, PatternError
from sd4x.patterns import (
    UNRESTRICTED,
    BoolSubset,
    CategorySubset,
    Interval,
    Pattern,
    Unrestricted,
    canonical,
    closed_form,
    extent,
    most_restrictive,
    pattern_to_conditions,
    refine,
    render,
)

from conftest import candidate_thresholds, mixed_dataset


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


def test_most_restrictive_on_two_objects(toy_enc):
    delta = most_restrictive(toy_enc, np.array([0, 1]))
    r = delta.restrictions
    assert r[0] == Interval(0.0, 0.7)
    assert r[1] == Interval(0.0, 0.8)
    assert r[5] == BoolSubset(frozenset({1}))
    assert r[7] == CategorySubset(frozenset({"Sales"}))
    assert r[8] == Interval(0.0, 4.0)
    assert r[9] == Interval(50.0, 60.0)
    covered = extent(delta, toy_enc).tolist()
    assert 0 in covered and 1 in covered
    assert 4 not in covered


def test_most_restrictive_empty_set_rejected(toy_enc):
    with pytest.raises(PatternError):
        most_restrictive(toy_enc, np.array([], dtype=np.int64))


def test_extent_matches_manual_filter(toy_enc):
    m = len(toy_enc.attributes)
    restrictions = [UNRESTRICTED] * m
    restrictions[5] = BoolSubset(frozenset({1}))
    restrictions[3] = Interval(-math.inf, 0.3, lo_open=True)
    pattern = Pattern(tuple(restrictions))
    assert extent(pattern, toy_enc).tolist() == [0, 1, 2]


def test_refine_numeric_and_boolean(toy, toy_enc):
    m = len(toy.attributes)
    top = Pattern.unrestricted(m)
    cols = toy_enc.columns
    p1 = refine(top, toy.attributes, cols[5], "gt", 0.5)
    assert p1.restrictions[5] == BoolSubset(frozenset({1}))
    p2 = refine(p1, toy.attributes, cols[3], "le", 0.3)
    iv = p2.restrictions[3]
    assert isinstance(iv, Interval) and iv.hi == 0.3 and not iv.hi_open
    assert extent(p2, toy_enc).tolist() == [0, 1, 2]
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
    assert extent(low, toy_enc).tolist() == [0, 2, 5, 6]
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
    closed = closed_form(path, toy_enc, np.array([0, 1, 2]))
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


def test_covers_respects_open_bounds(toy_enc):
    m = len(toy_enc.attributes)
    restrictions = [UNRESTRICTED] * m
    restrictions[9] = Interval(50.0, 96.0, lo_open=True)
    pattern = Pattern(tuple(restrictions))
    covered = extent(pattern, toy_enc).tolist()
    # o2 sits exactly on the open lower bound (50) and is excluded
    assert 1 not in covered
    assert 4 in covered
    restrictions[9] = Interval(50.0, 96.0, hi_open=True)
    covered = extent(Pattern(tuple(restrictions)), toy_enc).tolist()
    # o5 sits exactly on the open upper bound (96) and is excluded
    assert 1 in covered
    assert 4 not in covered


def test_refine_rejects_bad_side(toy, toy_enc):
    top = Pattern.unrestricted(len(toy.attributes))
    with pytest.raises(InputError):
        refine(top, toy.attributes, toy_enc.columns[0], "ge", 0.5)


# ---------------------------------------------------------------------------
# reference: patterns evaluated on raw (decoded) rows
# ---------------------------------------------------------------------------


def _ref_code(value, attr):
    if attr.kind is AttributeKind.NUMERIC:
        return float(value)
    if attr.kind is AttributeKind.BOOLEAN:
        return 1.0 if value else 0.0
    if attr.kind is AttributeKind.ORDINAL:
        return float(attr.categories.index(value))
    raise InputError(f"attribute {attr.name!r} has no numeric code")


def _ref_covers(pattern, row, attributes):
    for r, value, attr in zip(pattern.restrictions, row, attributes):
        if isinstance(r, Unrestricted):
            continue
        if isinstance(r, Interval):
            if not r.contains(_ref_code(value, attr)):
                return False
        elif isinstance(r, CategorySubset):
            if value not in r.categories:
                return False
        elif isinstance(r, BoolSubset):
            if int(bool(value)) not in r.values:
                return False
    return True


def _ref_most_restrictive(rows, attributes):
    out = []
    for i, attr in enumerate(attributes):
        values = [row[i] for row in rows]
        if attr.kind in (AttributeKind.NUMERIC, AttributeKind.ORDINAL):
            codes = [_ref_code(v, attr) for v in values]
            out.append(Interval(min(codes), max(codes)))
        elif attr.kind is AttributeKind.BOOLEAN:
            out.append(BoolSubset(frozenset(int(bool(v)) for v in values)))
        else:
            out.append(CategorySubset(frozenset(str(v) for v in values)))
    return Pattern(tuple(out))


def _ref_closed_form(pattern, member_rows, attributes):
    delta = _ref_most_restrictive(member_rows, attributes)
    keep = set(canonical(pattern, attributes).restricted_indices())
    return Pattern(
        tuple(
            delta.restrictions[i] if i in keep else UNRESTRICTED
            for i in range(len(attributes))
        )
    )


def test_encoded_patterns_equal_the_row_reference_on_random_refine_chains():
    rng = np.random.default_rng(2024)
    ds = mixed_dataset(rng, n=80)
    enc = encode(ds)
    attrs = enc.attributes
    seen_kinds, seen_sides, chains = set(), set(), 0
    while chains < 240:
        pattern = Pattern.unrestricted(len(attrs))
        for _ in range(int(rng.integers(1, 5))):
            j = int(rng.integers(enc.m))
            col = enc.columns[j]
            side = ("le", "gt")[int(rng.integers(2))]
            # data values too, so that open and closed bounds both matter
            vals = enc.values[:, j]
            threshold = float(rng.choice(np.append(vals, candidate_thresholds(vals))))
            try:
                pattern = refine(pattern, attrs, col, side, threshold)
            except PatternError:
                continue
            seen_kinds.add(col.kind)
            seen_sides.add(side)
        ext = extent(pattern, enc)
        ref = [i for i, row in enumerate(ds.rows) if _ref_covers(pattern, row, attrs)]
        assert ext.tolist() == ref
        if not ref:
            continue
        chains += 1
        got = closed_form(pattern, enc, ext)
        assert got == _ref_closed_form(pattern, [ds.rows[i] for i in ref], attrs)
        assert most_restrictive(enc, ext) == _ref_most_restrictive(
            [ds.rows[i] for i in ref], attrs
        )
    assert seen_kinds == set(AttributeKind)
    assert seen_sides == {"le", "gt"}


def test_interval_on_a_boolean_reads_its_codes():
    rng = np.random.default_rng(3)
    ds = mixed_dataset(rng, n=30)
    enc = encode(ds)
    for iv in (Interval(0.5, math.inf, True, True), Interval(-math.inf, 0.0, True)):
        pattern = Pattern((UNRESTRICTED, UNRESTRICTED, iv, UNRESTRICTED, UNRESTRICTED))
        ref = [i for i, row in enumerate(ds.rows) if _ref_covers(pattern, row, enc.attributes)]
        assert extent(pattern, enc).tolist() == ref


@pytest.mark.parametrize(
    "index, restriction",
    [
        (0, BoolSubset(frozenset({1}))),
        (0, CategorySubset(frozenset({"red"}))),
        (2, CategorySubset(frozenset({"red"}))),
        (3, Interval(0.5, math.inf, True, True)),
        (3, BoolSubset(frozenset({1}))),
        (4, BoolSubset(frozenset({0}))),
        (4, CategorySubset(frozenset({"low"}))),
    ],
    ids=[
        "bools-on-numeric",
        "categories-on-numeric",
        "categories-on-boolean",
        "interval-on-nominal",
        "bools-on-nominal",
        "bools-on-ordinal",
        "categories-on-ordinal",
    ],
)
def test_extent_rejects_a_restriction_of_the_wrong_kind(index, restriction):
    enc = encode(mixed_dataset(np.random.default_rng(4), n=10))
    restrictions = [UNRESTRICTED] * len(enc.attributes)
    restrictions[index] = restriction
    with pytest.raises(InputError):
        extent(Pattern(tuple(restrictions)), enc)


def test_extent_rejects_a_pattern_of_the_wrong_arity(toy_enc):
    m = len(toy_enc.attributes)
    for arity in (m - 1, m + 1):
        with pytest.raises(InputError):
            extent(Pattern.unrestricted(arity), toy_enc)
