"""Pattern language over typed attributes.

A pattern holds one restriction per attribute: an interval (numeric
attributes, ordinal attributes via their level codes, and boolean
attributes via their 0/1 codes), a category subset (nominal), a boolean
subset, or the distinct Unrestricted marker.  Patterns are evaluated on
the encoded matrix: each restriction reads its attribute's slice of
encoded columns.  Patterns support extent computation, the most
restrictive pattern of a set of encoded rows, refinement by an
encoded-column split, rendering, and serialization to JSON-friendly
condition lists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Attribute,
    AttributeKind,
    EncodedColumn,
    EncodedMatrix,
    attribute_slices,
)
from .errors import InputError, PatternError


@dataclass(frozen=True)
class Unrestricted:
    def __repr__(self) -> str:
        return "Unrestricted"


UNRESTRICTED = Unrestricted()


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise PatternError("interval bounds must not be NaN")
        if self.lo > self.hi or (
            self.lo == self.hi and (self.lo_open or self.hi_open)
        ):
            raise PatternError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, v):
        """Whether v lies inside; v is a number or an array of codes."""
        lo = v > self.lo if self.lo_open else v >= self.lo
        hi = v < self.hi if self.hi_open else v <= self.hi
        return lo & hi


@dataclass(frozen=True)
class CategorySubset:
    categories: frozenset[str]


@dataclass(frozen=True)
class BoolSubset:
    values: frozenset[int]


Restriction = Unrestricted | Interval | CategorySubset | BoolSubset


@dataclass(frozen=True)
class Pattern:
    restrictions: tuple[Restriction, ...]

    @staticmethod
    def unrestricted(m: int) -> "Pattern":
        return Pattern(tuple(UNRESTRICTED for _ in range(m)))

    def restricted_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, r in enumerate(self.restrictions) if not isinstance(r, Unrestricted)
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _is_full(r: Restriction, attr: Attribute) -> bool:
    """True when the restriction admits the whole attribute domain."""
    if isinstance(r, Unrestricted):
        return True
    if isinstance(r, Interval):
        if attr.kind is AttributeKind.ORDINAL:
            return _level_range(r, attr) == (0, len(attr.categories) - 1)
        lo_ok = math.isinf(r.lo) and r.lo < 0
        hi_ok = math.isinf(r.hi) and r.hi > 0
        return lo_ok and hi_ok
    if isinstance(r, CategorySubset):
        return r.categories >= set(attr.categories)
    if isinstance(r, BoolSubset):
        return r.values >= {0, 1}
    return False


def _level_range(r: Interval, attr: Attribute) -> tuple[int, int] | None:
    """Smallest and largest ordinal level codes inside the interval."""
    levels = [k for k in range(len(attr.categories)) if r.contains(float(k))]
    if not levels:
        return None
    return levels[0], levels[-1]


def canonical(pattern: Pattern, attributes: tuple[Attribute, ...]) -> Pattern:
    """Replace full-domain restrictions with the Unrestricted marker."""
    out = tuple(
        UNRESTRICTED if _is_full(r, a) else r
        for r, a in zip(pattern.restrictions, attributes)
    )
    return Pattern(out)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def _admits(r: Restriction, attr: Attribute, block: np.ndarray) -> np.ndarray:
    """Rows of an attribute's encoded block that the restriction admits."""
    kind = attr.kind
    if isinstance(r, Interval) and kind is not AttributeKind.NOMINAL:
        return r.contains(block[:, 0])
    if isinstance(r, BoolSubset) and kind is AttributeKind.BOOLEAN:
        return np.isin(block[:, 0], list(r.values))
    if isinstance(r, CategorySubset) and kind is AttributeKind.NOMINAL:
        keep = [k for k, c in enumerate(attr.categories) if c in r.categories]
        return (block[:, keep] == 1.0).any(axis=1)
    raise InputError(
        f"a {type(r).__name__} cannot restrict {kind.value} attribute {attr.name!r}"
    )


def extent(pattern: Pattern, enc: EncodedMatrix) -> np.ndarray:
    """Indices of the encoded rows covered by the pattern."""
    if len(pattern.restrictions) != len(enc.attributes):
        raise InputError("pattern and attributes must have equal arity")
    mask = np.ones(enc.n, dtype=bool)
    for r, attr, sl in zip(
        pattern.restrictions, enc.attributes, attribute_slices(enc.attributes)
    ):
        if not isinstance(r, Unrestricted):
            mask &= _admits(r, attr, enc.values[:, sl])
    return np.flatnonzero(mask)


def most_restrictive(enc: EncodedMatrix, members: np.ndarray) -> Pattern:
    """Tightest pattern covering the member rows (closed intervals, value sets)."""
    if len(members) == 0:
        raise PatternError("most_restrictive of an empty set is undefined")
    out: list[Restriction] = []
    for attr, sl in zip(enc.attributes, attribute_slices(enc.attributes)):
        block = enc.values[members, sl]
        if attr.kind in (AttributeKind.NUMERIC, AttributeKind.ORDINAL):
            out.append(Interval(float(block.min()), float(block.max())))
        elif attr.kind is AttributeKind.BOOLEAN:
            out.append(BoolSubset(frozenset(int(v) for v in np.unique(block))))
        else:
            present = (block == 1.0).any(axis=0)
            cats = frozenset(c for c, p in zip(attr.categories, present) if p)
            out.append(CategorySubset(cats))
    return Pattern(tuple(out))


def refine(
    pattern: Pattern,
    attributes: tuple[Attribute, ...],
    column: EncodedColumn,
    side: str,
    threshold: float,
) -> Pattern:
    """Intersect the pattern with one side of an encoded-column split.

    ``side`` is "le" (column value <= threshold) or "gt".  One-hot
    columns restrict the category set of their source attribute; boolean
    columns restrict the value set; numeric and ordinal columns tighten
    the interval.  Raises PatternError when the result is empty.
    """
    if side not in ("le", "gt"):
        raise InputError(f"side must be 'le' or 'gt', got {side!r}")
    i = column.source
    attr = attributes[i]
    cur = pattern.restrictions[i]
    new: Restriction
    if attr.kind in (AttributeKind.NUMERIC, AttributeKind.ORDINAL):
        if isinstance(cur, Unrestricted):
            cur = Interval(-math.inf, math.inf, True, True)
        if not isinstance(cur, Interval):
            raise InputError(f"attribute {attr.name!r} is not interval-restricted")
        if side == "le":
            if threshold < cur.hi:
                new = Interval(cur.lo, threshold, cur.lo_open, False)
            else:
                new = cur
        else:
            if threshold > cur.lo or (threshold == cur.lo and not cur.lo_open):
                new = Interval(threshold, cur.hi, True, cur.hi_open)
            else:
                new = cur
        if (
            attr.kind is AttributeKind.ORDINAL
            and _level_range(new, attr) is None
        ):
            raise PatternError(
                f"refinement empties ordinal attribute {attr.name!r}"
            )
    elif attr.kind is AttributeKind.BOOLEAN:
        values = cur.values if isinstance(cur, BoolSubset) else frozenset({0, 1})
        if side == "le":
            keep = frozenset(b for b in values if b <= threshold)
        else:
            keep = frozenset(b for b in values if b > threshold)
        if not keep:
            raise PatternError(f"refinement empties boolean attribute {attr.name!r}")
        new = BoolSubset(keep)
    else:
        cats = (
            cur.categories
            if isinstance(cur, CategorySubset)
            else frozenset(attr.categories)
        )
        if side == "le":
            keep = frozenset(
                c for c in cats if (1.0 if c == column.category else 0.0) <= threshold
            )
        else:
            keep = frozenset(
                c for c in cats if (1.0 if c == column.category else 0.0) > threshold
            )
        if not keep:
            raise PatternError(f"refinement empties nominal attribute {attr.name!r}")
        new = CategorySubset(keep)
    restrictions = list(pattern.restrictions)
    restrictions[i] = new
    return Pattern(tuple(restrictions))


def closed_form(pattern: Pattern, enc: EncodedMatrix, members: np.ndarray) -> Pattern:
    """Most restrictive pattern of the members, projected onto the
    attributes the split-path pattern actually restricts."""
    delta = most_restrictive(enc, members)
    keep = set(canonical(pattern, enc.attributes).restricted_indices())
    out = tuple(
        delta.restrictions[i] if i in keep else UNRESTRICTED
        for i in range(len(enc.attributes))
    )
    return Pattern(out)


# ---------------------------------------------------------------------------
# rendering and serialization
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    v = float(v)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _render_one(r: Restriction, attr: Attribute) -> str | None:
    if _is_full(r, attr):
        return None
    name = attr.name
    if isinstance(r, Interval):
        if attr.kind is AttributeKind.ORDINAL:
            rng = _level_range(r, attr)
            if rng is None:
                return f"{name} ∈ ∅"
            lo, hi = rng
            last = len(attr.categories) - 1
            if lo == hi:
                return f"{name} = {attr.categories[lo]}"
            if lo == 0:
                return f"{name} ≤ {attr.categories[hi]}"
            if hi == last:
                return f"{name} ≥ {attr.categories[lo]}"
            return f"{name} ∈ [{attr.categories[lo]}, {attr.categories[hi]}]"
        if r.lo == r.hi:
            return f"{name} = {_fmt(r.lo)}"
        if math.isinf(r.lo):
            op = "<" if r.hi_open else "≤"
            return f"{name} {op} {_fmt(r.hi)}"
        if math.isinf(r.hi):
            op = ">" if r.lo_open else "≥"
            return f"{name} {op} {_fmt(r.lo)}"
        lb = "(" if r.lo_open else "["
        rb = ")" if r.hi_open else "]"
        return f"{name} ∈ {lb}{_fmt(r.lo)}, {_fmt(r.hi)}{rb}"
    if isinstance(r, BoolSubset):
        if not r.values:
            return f"{name} ∈ ∅"
        if r.values == {1}:
            return f"{name} = True"
        if r.values == {0}:
            return f"{name} = False"
        return f"{name} ∈ {{False, True}}"
    if isinstance(r, CategorySubset):
        if not r.categories:
            return f"{name} ∈ ∅"
        ordered = [c for c in attr.categories if c in r.categories]
        if len(ordered) == 1:
            return f"{name} = {ordered[0]}"
        return f"{name} ∈ {{{', '.join(ordered)}}}"
    return None


def render(pattern: Pattern, attributes: tuple[Attribute, ...]) -> str:
    """Human-readable conjunction; "⊤" when nothing is restricted."""
    parts = [
        s
        for r, a in zip(pattern.restrictions, attributes)
        if (s := _render_one(r, a)) is not None
    ]
    return " ∧ ".join(parts) if parts else "⊤"


def pattern_to_conditions(
    pattern: Pattern, attributes: tuple[Attribute, ...]
) -> list[dict]:
    """Serialize to a list of {attribute, op, value} conditions.

    Ops: "le" / "gt" for single-sided bounds, "in" for closed intervals
    and category sets, "eq" for degenerate values.  Ordinal bounds are
    serialized as level codes, matching the split semantics.
    """
    out: list[dict] = []
    for r, attr in zip(pattern.restrictions, attributes):
        if _is_full(r, attr):
            continue
        name = attr.name
        if isinstance(r, Interval):
            if not _serializable(r):
                raise PatternError(f"cannot serialize interval {r!r} on {name!r}")
            lo_fin = math.isfinite(r.lo)
            hi_fin = math.isfinite(r.hi)
            if lo_fin and hi_fin and r.lo == r.hi:
                out.append({"attribute": name, "op": "eq", "value": r.lo})
            elif lo_fin and hi_fin and not r.lo_open and not r.hi_open:
                out.append({"attribute": name, "op": "in", "value": [r.lo, r.hi]})
            else:
                if lo_fin:
                    out.append({"attribute": name, "op": "gt", "value": r.lo})
                if hi_fin:
                    out.append({"attribute": name, "op": "le", "value": r.hi})
        elif isinstance(r, BoolSubset):
            if not r.values:
                raise PatternError(f"cannot serialize empty boolean set on {name!r}")
            if len(r.values) == 1:
                out.append(
                    {"attribute": name, "op": "eq", "value": bool(next(iter(r.values)))}
                )
            else:
                out.append({"attribute": name, "op": "in", "value": [False, True]})
        elif isinstance(r, CategorySubset):
            if not r.categories:
                raise PatternError(f"cannot serialize empty category set on {name!r}")
            ordered = [c for c in attr.categories if c in r.categories]
            if len(ordered) == 1:
                out.append({"attribute": name, "op": "eq", "value": ordered[0]})
            else:
                out.append({"attribute": name, "op": "in", "value": ordered})
    return out


def _serializable(r: Interval) -> bool:
    """True when the interval maps onto the le/gt/in/eq condition ops."""
    lo_fin = math.isfinite(r.lo)
    hi_fin = math.isfinite(r.hi)
    if lo_fin and hi_fin:
        if r.lo == r.hi:
            return True
        if not r.lo_open and not r.hi_open:
            return True
        return r.lo_open and not r.hi_open
    if lo_fin:
        return r.lo_open
    if hi_fin:
        return not r.hi_open
    return True
