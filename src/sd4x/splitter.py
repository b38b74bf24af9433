"""Greedy subgroup discovery over explained objects.

The algorithm starts from one subgroup holding every explained object
and repeatedly applies the best available binary split until the
subgroup budget ``K`` is reached or no split reduces the loss.  The
loss of a subgroup is the sum of squared errors of its fitted surrogate
over the pooled neighborhoods of its members; the loss of a partition
is the sum over its subgroups.

Every allowed column of a subgroup is searched the same way.  Its
member values are sorted once per search, stably.  Its candidate
boundaries lie between consecutive distinct sorted values and leave
``min_support`` members on each side; a boundary's threshold is the
midpoint of those two values (see :func:`_midpoints`).  A boolean
or one-hot column holds 0 or 1, so it has at most one candidate, and an
ordinal has at most one per pair of adjacent levels.

Each column first sums a grid of ``_GRID`` evenly spaced candidates,
all of them when it has no more.  Both children of a grid boundary are
0/1 indicator rows over the members, ``value <= threshold`` and
``value > threshold``, and one product of those rows with the members'
Gram pieces sums every child of a group of grid boundaries, in bounded
blocks of boundaries and members.  Each child is summed from its own
rows, so an entry that is zero on all of them, such as a one-hot level
absent from the child, is an exact zero.

A column with candidates off its grid is searched with an exact bound,
in the manner of optimistic estimates in subgroup discovery and of
"leaps and bounds" for least squares.  The unpenalized least-squares
SSE of a set of rows never decreases when rows are added, and the ridge
SSE that the search ranks is never below it.  At boundary t the left
child contains the left child of every boundary a < t, and the right
child contains the right child of every boundary b > t, so
OLS_left(a) + OLS_right(b) bounds the SSE of every boundary from a to
b, and OLS_left(t) + OLS_right(t) that of t itself.  A least-squares
SSE is also superadditive over disjoint row sets: the SSE of A and B
together is at least OLS(A) + OLS(B), since one shared fit is a
candidate fit for each part.  So
with ``loc_i`` the least-squares SSE of object i's own neighborhood,
computed once per run, the interval from a to b is bounded by
OLS_left(a) + OLS_right(b) plus the ``loc`` of every member sorted
between a and b: each of them lies in one child of every boundary
there.  The least-squares SSEs of both children at each grid point but
the two ends come from the same indicator sums, one stacked solve per
group; the smallest children, left of the first grid point and right of
the last, are bounded by the ``loc`` of their members.  A coded column
that is constant on a system's rows is decoupled before any of these
least-squares solves, so that the system is not singular for it (see
:func:`_decouple`), and one constant on every object's neighborhood is
left out of the per-object systems.  A candidate, grid point or boundary
inside an interval between grid points, is ridge-solved only when its
bound does not exceed the best SSE found so far, over every column, by
more than ``_BOUND_MARGIN`` times the subgroup's summed squared
outputs.  The margin is far above the rounding of either SSE, so no
candidate that could win is skipped.  A group's grid points are solved
in at most two ridge stacks: first the points solved whatever their
bound (both ends of each column and the inner point with the lowest
bound, or every point of a column with no candidates off its grid),
then the other points still live.  After the grid, the columns are
visited by their lowest interval bound.  One column at a time, the
members' Gram pieces are accumulated in the column's sorted order, kept
from the candidate pass, as prefix sums, and the boundaries of its live
intervals are solved from them, the right child as the totals minus the
prefix.  Each boundary's prefix row and the column's totals are copied
into a buffer bounded by the stack budget and shared by the columns, so
that the boundaries of many columns are solved in one stack; a column
with more boundaries than the buffer holds is solved on its own.  Every SSE is
summed the same way whichever stack solves it, and a stacked solve
gives each matrix the same bits as a solve of its own.  One-hot blocks
would make the bound solves singular, so they drop one column per
nominal block; see :func:`_bound_design`.

The search only ranks candidates; the winning split's children are
refitted through the canonical pooled-fit path, and a split is applied
only when the children's summed loss improves on the parent's by more
than ``_GAIN_GUARD`` times the parent's summed squared outputs: losses
come from Gram pieces that cancel against those outputs, so smaller
gains are rounding noise.  Child losses are never negative, so a split's
gain never exceeds its subgroup's loss: each step visits subgroups by
decreasing loss, searches a subgroup only the first time it is visited,
and stops once a subgroup's loss is below the best gain found.  Nor can
the children of any split lose less than their members' summed
``loc``, so a subgroup not yet searched is skipped, and left unsearched
for a later step, when its loss minus that sum is below the best gain
by more than ``_BOUND_MARGIN`` times its members' summed squared
outputs.  All
reductions break ties deterministically: lower column index first, then
lower threshold, then lower subgroup id.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dataset import AttributeKind, EncodedMatrix, attribute_slices, content_hash
from .errors import InputError, InvariantError
from .neighborhood import NeighborhoodSet, build, label
from .patterns import (
    Pattern,
    closed_form,
    extent,
    pattern_to_conditions,
    refine,
    render,
)
from .whitebox import (
    WhiteBoxModel,
    feature_importance,
    fit_on_neighborhoods,
    fit_parts,
    model_to_dict,
    neighborhood_grams,
    subgroup_loss,
)

_GAIN_GUARD = 1e-12
_TOP_FEATURES = 5


@dataclass
class Subgroup:
    id: int
    members: np.ndarray
    pattern: Pattern
    model: WhiteBoxModel
    loss: float
    # Sum of the members' own least-squares SSEs (``_Engine.loc``): no
    # split's children lose less, so no split gains more than loss - loc.
    loc: float = 0.0


@dataclass
class CandidateSplit:
    subgroup_id: int
    column: int
    threshold: float
    left_members: np.ndarray
    right_members: np.ndarray
    left_model: WhiteBoxModel
    right_model: WhiteBoxModel
    left_loss: float
    right_loss: float
    gain: float


@dataclass
class TraceEntry:
    iteration: int
    subgroup: int
    column: str
    threshold: float
    gain: float
    loss_after: float


@dataclass
class Partition:
    subgroups: list[Subgroup]
    trace: list[TraceEntry]
    root_loss: float
    global_loss: float
    config: dict = field(default_factory=dict)

    def curve(self) -> list[tuple[int, float]]:
        """Loss after each greedy step: [(1, root loss), (2, loss after split 1), ...]."""
        return [(1, self.root_loss)] + [(t.iteration + 1, t.loss_after) for t in self.trace]


def _midpoints(lo, hi):
    """Split threshold between consecutive distinct column values lo < hi.

    The midpoint, or lo where rounding puts the midpoint outside
    [lo, hi), as it does for some adjacent floats: a split at the
    threshold must send lo left and hi right.
    """
    mid = (lo + hi) / 2.0
    return np.where((lo <= mid) & (mid < hi), mid, lo)


# Grid boundaries solved first in each column, and the share of a
# subgroup's summed squared outputs by which an interval's least-squares
# bound must exceed the best SSE before the interval is skipped, and by
# which a subgroup's gain bound must fall short of the best gain before
# the subgroup is skipped; see the module docstring.
_GRID = 16
_BOUND_MARGIN = 1e-4


def _grid(n: int) -> np.ndarray:
    """Positions of the grid among a column's n candidate boundaries.

    ``_GRID`` evenly spaced positions, the first and the last included,
    or all n when n is at most ``_GRID``.
    """
    if n <= _GRID:
        return np.arange(n)
    return np.arange(_GRID) * (n - 1) // (_GRID - 1)


def _lowest(best: tuple, j: int, sv: np.ndarray, ts: np.ndarray, sses: np.ndarray) -> tuple:
    """Lowest of ``best`` and column j's lowest (SSE, column, threshold).

    ``sses`` holds the SSEs of boundaries ``ts`` of sorted values ``sv``;
    on equal SSEs the first, lowest threshold is kept.
    """
    i = int(np.argmin(sses))
    return min(best, (float(sses[i]), j, float(_midpoints(sv[ts[i] - 1], sv[ts[i]]))))


def _bound_design(enc: EncodedMatrix, G_all: np.ndarray) -> np.ndarray | None:
    """Design columns of the least-squares bound solves; None keeps them all.

    A nominal attribute's one-hot block J sums to the intercept column
    on every row that is one-hot in J, which makes the full design
    singular: its bound solves would all fail the pivot test.  Dropping
    the block's last column leaves the column space, and with it every
    least-squares SSE, unchanged, but only if every neighborhood row is
    one-hot in J, that is if ``|X_J 1 - 1|^2 = 1'G_JJ 1 - 2 1'G_Jm + G_mm``
    is 0 for every object (m is the intercept).  On 0/1 entries every
    term is an integer count, so the test is exact.  ``discretize``
    guarantees it for built neighborhoods; a cache file or a
    caller-supplied set might not, and then the full design is kept.
    """
    m = G_all.shape[1] - 1
    drop = []
    for attr, sl in zip(enc.attributes, attribute_slices(enc.attributes)):
        if attr.kind is not AttributeKind.NOMINAL:
            continue
        gap = G_all[:, sl, sl].sum(axis=(1, 2)) - 2.0 * G_all[:, sl, m].sum(axis=1)
        if np.any(gap + G_all[:, m, m] != 0.0):
            return None
        drop.append(sl.stop - 1)
    return np.delete(np.arange(m + 1), drop) if drop else None


def _coded_positions(enc: EncodedMatrix, keep: np.ndarray | None) -> np.ndarray:
    """Positions, in the bound design ``keep`` (None: every column), of its
    boolean, ordinal and one-hot columns."""
    numeric = [j for j, c in enumerate(enc.columns) if c.kind is AttributeKind.NUMERIC]
    keep = np.arange(enc.m + 1) if keep is None else keep
    return np.flatnonzero(~np.isin(keep, numeric))[:-1]  # the intercept is kept last


def _constant(G: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Which of the columns ``cols`` are constant on each system's rows.

    ``G`` is a stack of Gram matrices with the intercept last.  Column j
    is constant on a system's S = G[-1, -1] rows exactly when ``S G[j, j]
    == G[j, -1]^2``; on integer codes, which ``discretize`` guarantees
    for boolean, ordinal and one-hot columns, every term is an exact
    integer.  Returns (systems, len(cols)) flags.
    """
    return G[:, -1, -1, None] * G[:, cols, cols] == G[:, cols, -1] ** 2


def _decouple(G: np.ndarray, C: np.ndarray, coded: np.ndarray) -> np.ndarray:
    """Decouple, in place, every coded column that is constant on a system's rows.

    ``G`` and ``C`` are a stack of Gram pieces with the intercept last,
    and ``coded`` the positions of its coded columns.  A column constant
    on a system's rows (see :func:`_constant`) is collinear with the
    intercept there, or zero, so its row and column of G and its row of
    C are zeroed and its diagonal entry set to G's largest.  The system's
    column space, and with it its least-squares SSE, stays the same, and
    the column no longer fails the pivot test.  Returns the number of
    columns decoupled in each system.
    """
    if not coded.size:  # a numeric schema: nothing to test
        return np.zeros(G.shape[0], dtype=np.intp)
    const = _constant(G, coded)
    scale = np.diagonal(G, axis1=1, axis2=2).max(axis=1)
    at, c = np.nonzero(const)
    j = coded[c]
    G[at, j, :] = 0.0
    G[at, :, j] = 0.0
    G[at, j, j] = scale[at]
    C[at, j] = 0.0
    return const.sum(axis=1)


def _own_least_squares(grams: tuple, keep: np.ndarray | None, coded: np.ndarray) -> np.ndarray:
    """Each object's least-squares SSE on its own neighborhood, in the bound design.

    ``keep`` is the bound design's columns, None for all of them, and
    ``coded`` the positions of its coded columns.  A coded column
    constant on every object's rows, as a one-hot level is where no
    neighborhood leaves its object's category, is left out, which keeps
    each object's column space and makes every system smaller; the other
    constant ones are decoupled (see :func:`_decouple`).  The per-object
    systems are gathered and solved ``kernels._STACK_BYTES`` of matrices
    at a time.  An object with fewer rows than the columns left is
    rank-deficient and gets 0 unsolved; a matrix that fails the pivot
    test gets 0 too.  0 is a valid lower bound in both cases.
    """
    G_all, C_all, yy_all = grams
    keep = np.arange(G_all.shape[1]) if keep is None else keep
    use = np.delete(keep, coded[_constant(G_all, keep[coded]).all(axis=0)])
    live = np.flatnonzero(np.isin(use, keep[coded]))
    step = max(1, kernels._STACK_BYTES // (use.size * use.size * 8))
    out = np.zeros(G_all.shape[0])
    for start in range(0, out.size, step):
        part = slice(start, start + step)
        G = G_all[part][:, use[:, None], use]
        C = C_all[part][:, use]
        yy = yy_all[part]
        solve = np.flatnonzero(G[:, -1, -1] >= use.size - _decouple(G, C, live))
        if solve.size < yy.size:
            G, C, yy = G[solve], C[solve], yy[solve]
        if solve.size:
            out[start + solve] = np.maximum(kernels.least_squares_sse(G, C, yy), 0.0)
    return out


class _Engine:
    def __init__(
        self,
        enc: EncodedMatrix,
        ns: NeighborhoodSet,
        lam: float,
        min_support: int,
        columns: list[int],
        threads: int = 1,
    ) -> None:
        self.enc = enc
        self.ns = ns
        self.lam = lam
        self.min_support = min_support
        self.columns = columns
        self.grams = neighborhood_grams(ns, threads)
        self.npen = enc.m
        G_all, C_all, _ = self.grams
        self.bound_cols = _bound_design(enc, G_all)
        self.coded = _coded_positions(enc, self.bound_cols)
        self.loc = _own_least_squares(self.grams, self.bound_cols, self.coded)
        d, p = C_all.shape[1:]
        # Gram rows (G, C, yy) in a quarter of the stack budget.
        rows = kernels._STACK_BYTES // (4 * (d * d + d * p + 1) * 8)
        # Grid boundaries summed and solved together.  Their children's
        # pieces take at most half of the stack budget, which leaves room
        # for the solves' gathered copies and temporaries.
        self.grid_group = max(1, rows)
        # Rows of the interval buffer: the scan's stack of both children
        # then takes at most half of the budget, and the solve's two copies
        # of that stack the whole.  A column with more live boundaries is
        # scanned from its own prefix sums.
        self.scan_rows = max(2, rows)

    def _boundaries(self, sv: np.ndarray) -> np.ndarray:
        """Candidate boundaries of sorted member values ``sv``.

        Boundary t splits ``sv[:t]`` from ``sv[t:]``.  It is a candidate
        when ``sv[t - 1] < sv[t]`` and both sides hold ``min_support``
        members or more.
        """
        jumps = np.flatnonzero(sv[1:] > sv[:-1]) + 1
        return jumps[(jumps >= self.min_support) & (jumps <= sv.size - self.min_support)]

    def _grid_pieces(
        self, members: np.ndarray, cols: np.ndarray, thresholds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gram pieces (G, C, yy) of both children of a group of grid boundaries.

        Boundary i splits the members at ``thresholds[i]`` on column
        ``cols[i]``.  Rows [0, k) of a 0/1 indicator are the left
        children of the k boundaries, ``value <= threshold``, and rows
        [k, 2k) the right ones.  The members' Gram pieces are gathered
        into one (rows, d*d + d*p + 1) buffer a block at a time, and one
        product per block adds every child's share of (G, C, yy); a
        block's buffer, indicator and column values take at most
        ``kernels._STACK_BYTES`` together.  Children are in the same
        order: the k left ones, then the k right ones.
        """
        G_all, C_all, yy_all = self.grams
        N, d, p = C_all.shape
        dd, dp = d * d, d * p
        G_flat, C_flat = G_all.reshape(N, dd), C_all.reshape(N, dp)
        width = dd + dp + 1
        k = cols.size
        rows = max(1, kernels._STACK_BYTES // ((width + 3 * k) * 8))
        acc = np.zeros((2 * k, width))
        for start in range(0, members.size, rows):
            mb = members[start : start + rows]
            buf = np.empty((mb.size, width))
            np.take(G_flat, mb, axis=0, out=buf[:, :dd])
            np.take(C_flat, mb, axis=0, out=buf[:, dd:-1])
            np.take(yy_all, mb, out=buf[:, -1])
            vals = self.enc.values[np.ix_(mb, cols)].T
            ind = np.empty((2 * k, mb.size))
            np.less_equal(vals, thresholds[:, None], out=ind[:k])
            np.greater(vals, thresholds[:, None], out=ind[k:])
            acc += ind @ buf
            del buf, ind, vals  # free the block before the next one is gathered
        return acc[:, :dd].reshape(-1, d, d), acc[:, dd:-1].reshape(-1, d, p), acc[:, -1]

    def _ridge(
        self, G: np.ndarray, C: np.ndarray, yy: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Summed ridge SSE of both children of the grid boundaries ``idx``.

        ``G``, ``C`` and ``yy`` are a group's children, as
        :meth:`_grid_pieces` returns them; the picked ones are solved in
        one stack.
        """
        both = np.concatenate([idx, G.shape[0] // 2 + idx])
        Gs, Cs = G[both], C[both]
        B, _ = kernels.solve_stack(Gs, Cs, self.lam, self.npen)
        sse = kernels.residual_sse(Gs, Cs, yy[both], B)
        return sse[: idx.size] + sse[idx.size :]

    def _least_squares(
        self, G: np.ndarray, C: np.ndarray, yy: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares SSEs, in the bound design, of the left and the
        right children of the grid boundaries ``idx``, solved in one stack
        with their constant coded columns decoupled (see :func:`_decouple`)."""
        both = np.concatenate([idx, G.shape[0] // 2 + idx])
        keep = self.bound_cols
        if keep is None:
            G, C = G[both], C[both]
        else:
            G, C = G[np.ix_(both, keep, keep)], C[np.ix_(both, keep)]
        _decouple(G, C, self.coded)
        ols = kernels.least_squares_sse(G, C, yy[both])
        return ols[: idx.size], ols[idx.size :]

    def _grid_splits(
        self, members: np.ndarray, margin: float
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[tuple[int, np.ndarray, tuple]]]:
        """Each column's grid, solved where it could win, and the bounds of its intervals.

        Each column's member values are sorted once, stably.  Returns
        (grid, bounds).  ``grid`` is (cols, thresholds, sse) over the grid
        points of every column with a candidate, column by column: the
        ridge SSE of each solved point, and +inf for a point skipped for
        its bound.  ``bounds`` holds (column, lo, view) for every column
        with candidates off its grid.  Interval i, strictly between grid
        points a and b, is bounded by ``lo[i]`` = OLS_left(a) +
        OLS_right(b) plus the ``loc`` of the members sorted between a
        and b, and an interval with no boundary inside gets +inf.  The
        smallest children, left of the first grid point and right of the
        last, are bounded by the ``loc`` of their members instead of a
        solve: with a few members they are often rank-deficient and would
        bound nothing.  ``view``
        is the column's sorted view, (sorted members, sorted values,
        candidate boundaries, grid positions among them), from which
        :meth:`_scan` solves the live intervals.

        The grids of all columns are summed ``grid_group`` boundaries at
        a time, and each group is solved in at most three stacks.  The
        first gives the least-squares SSEs of the children of every inner
        point of a column with candidates off its grid; OLS_left(t) +
        OLS_right(t) bounds the ridge SSE at t.  The second gives the
        ridge SSEs of the points always solved: every point of a column
        without candidates off its grid, the two ends of a column with
        some, and each such column's inner point with the lowest bound.
        The third gives those of the other inner points whose bound does
        not exceed the lowest SSE found so far by more than ``margin``.
        """
        spans, cols, thresholds, bounded = [], [], [], []
        for j in self.columns:
            vals = self.enc.values[members, j]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            ts = self._boundaries(sv)
            if ts.size == 0:
                continue
            g = _grid(ts.size)
            t = ts[g]
            view = (members[order], sv, ts, g) if ts.size > t.size else None
            spans.append((j, len(cols), t.size, view))
            cols += [j] * t.size
            thresholds.append(_midpoints(sv[t - 1], sv[t]))
            has_bound = np.zeros(t.size, dtype=bool)
            has_bound[1:-1] = view is not None
            bounded.append(has_bound)
        if not spans:
            return (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)), []
        cols = np.array(cols)
        thresholds, bounded = np.concatenate(thresholds), np.concatenate(bounded)
        sse = np.full(cols.size, np.inf)
        left, right = np.zeros(cols.size), np.zeros(cols.size)
        best = np.inf
        for a in range(0, cols.size, self.grid_group):
            part = slice(a, a + self.grid_group)
            G, C, yy = self._grid_pieces(members, cols[part], thresholds[part])
            solve = ~bounded[part]
            inner = np.flatnonzero(bounded[part])
            if inner.size:
                left[a + inner], right[a + inner] = self._least_squares(G, C, yy, inner)
                lo = left[a + inner] + right[a + inner]
                owner = cols[a + inner]
                starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
                for s, e in zip(starts, np.r_[starts[1:], inner.size]):
                    solve[inner[s + int(np.argmin(lo[s:e]))]] = True
            idx = np.flatnonzero(solve)
            sse[a + idx] = self._ridge(G, C, yy, idx)
            best = min(best, float(sse[a + idx].min()))
            rest = inner[~solve[inner]]
            rest = rest[~(left[a + rest] + right[a + rest] > best + margin)]
            if rest.size:
                sse[a + rest] = self._ridge(G, C, yy, rest)
                best = min(best, float(sse[a + rest].min()))
            del G, C, yy  # free the group before the next one is summed
        bounds = []
        for j, a, k, view in spans:
            if view is not None:
                mo, _, ts, g = view
                cl = np.concatenate([[0.0], np.cumsum(self.loc[mo])])
                t = ts[g]
                left[a], right[a + k - 1] = cl[t[0]], cl[-1] - cl[t[-1]]
                lo = left[a : a + k - 1] + right[a + 1 : a + k]
                lo += cl[t[1:]] - cl[t[:-1]]
                lo[np.diff(g) == 1] = np.inf
                bounds.append((j, lo, view))
        return (cols, thresholds, sse), bounds

    def _scan(
        self, bounds: list[tuple[int, np.ndarray, tuple]], best: tuple, margin: float
    ) -> tuple:
        """Lowest of ``best`` and the (SSE, column, threshold) of every live boundary.

        ``bounds`` is as :meth:`_grid_splits` returns it.  Columns are
        visited by their lowest interval bound, and an interval is live
        unless its bound exceeds the lowest SSE found so far by more than
        ``margin``.  A column's members' Gram pieces are summed in its
        sorted order into prefix sums, whose last row is its totals, one
        column at a time.  A column with ``scan_rows`` live boundaries or
        more is solved from them by one :func:`kernels.scan_sse` call.
        Every other column's prefix rows at its live boundaries, then its
        totals, are copied into one buffer of ``scan_rows`` rows shared by
        those columns, and one :func:`kernels.scan_sse` call solves the
        buffer before a column that does not fit, before a column solved
        alone, and at the end.  The buffer is solved before the prefix
        sums of the next column are taken, so the two are not held at once.
        A long column is not passed through the buffer: that would copy
        each of its rows once more and solve them in the buffer's smaller
        chunks, which made the split search of ``tools/scale_probe.py
        --n 5000 --m 30`` slower, 16.6 s against 15.2 s in the median of
        five runs on a 2-vCPU machine, for 3 MB less peak RSS.
        """
        buf, used, parts = None, 0, []
        for j, lo, (mo, sv, ts, g) in sorted(bounds, key=lambda b: (b[1].min(), b[0])):
            keep = np.flatnonzero(~(lo > best[0] + margin))
            t = np.concatenate([ts[g[i] + 1 : g[i + 1]] for i in keep] + [ts[:0]])
            if t.size == 0:
                continue
            alone = t.size >= self.scan_rows
            if parts and (alone or used + t.size + 1 > self.scan_rows):
                best, used = self._flush(buf, used, parts, best), 0
            pre = [a[mo] for a in self.grams]
            for a in pre:
                np.cumsum(a, axis=0, out=a)
            if alone:
                last = np.full(t.size, mo.size - 1)
                sses = kernels.scan_sse(*pre, *pre, t, self.lam, self.npen, last)
                best = _lowest(best, j, sv, t, sses)
            else:
                if buf is None:
                    buf = [np.empty((self.scan_rows,) + a.shape[1:]) for a in self.grams]
                for src, dst in zip(pre, buf):
                    np.take(src, t - 1, axis=0, out=dst[used : used + t.size])
                    dst[used + t.size] = src[-1]
                parts.append((j, sv, t, used))
                used += t.size + 1
            del pre  # freed before the next column's prefix sums are taken
        return self._flush(buf, used, parts, best) if parts else best

    def _flush(self, buf: list, used: int, parts: list, best: tuple) -> tuple:
        """Solve the buffered boundaries; lowest of ``best`` and their (SSE, column, threshold).

        ``parts`` holds (column, sorted values, boundaries, first row) for
        each column in the buffer, whose prefix rows are followed by its
        totals; it is emptied.
        """
        Gb, Cb, yyb = (a[:used] for a in buf)
        at = np.concatenate([np.arange(r, r + t.size) for _, _, t, r in parts])
        totals = np.concatenate([np.full(t.size, r + t.size) for _, _, t, r in parts])
        sses = kernels.scan_sse(Gb, Cb, yyb, Gb, Cb, yyb, at + 1, self.lam, self.npen, totals)
        s = 0
        for j, sv, t, _ in parts:
            best = _lowest(best, j, sv, t, sses[s : s + t.size])
            s += t.size
        parts.clear()
        return best

    def _search(self, members: np.ndarray) -> tuple[float, int, float] | None:
        """Lowest (SSE, column, threshold) over every candidate split, or None.

        Every grid is solved first, then the boundaries of the intervals
        whose bound does not exceed the lowest SSE found so far by more
        than ``_BOUND_MARGIN`` times the members' summed squared outputs.
        """
        margin = _BOUND_MARGIN * float(self.grams[2][members].sum())
        (cols, thresholds, sse), bounds = self._grid_splits(members, margin)
        if not cols.size:
            return None
        i = int(np.lexsort((thresholds, cols, sse))[0])
        return self._scan(bounds, (float(sse[i]), int(cols[i]), float(thresholds[i])), margin)

    def best_split(self, sg: Subgroup) -> CandidateSplit | None:
        """Best candidate split of a subgroup, or None when no split exists."""
        if sg.members.size < 2 * self.min_support:
            return None
        best = self._search(sg.members)
        if best is None:
            return None
        _, column, threshold = best
        mask = self.enc.values[sg.members, column] <= threshold
        left = sg.members[mask]
        right = sg.members[~mask]
        left_model, right_model = fit_parts(self.ns, (left, right), self.lam)
        left_loss = subgroup_loss(self.ns, left, left_model)
        right_loss = subgroup_loss(self.ns, right, right_model)
        return CandidateSplit(
            subgroup_id=sg.id,
            column=column,
            threshold=threshold,
            left_members=left,
            right_members=right,
            left_model=left_model,
            right_model=right_model,
            left_loss=left_loss,
            right_loss=right_loss,
            gain=sg.loss - (left_loss + right_loss),
        )


def _resolve_columns(enc: EncodedMatrix, split_columns) -> list[int]:
    if split_columns is None:
        return list(range(enc.m))
    if split_columns == "non-text":
        return [
            j
            for j, col in enumerate(enc.columns)
            if enc.attributes[col.source].text_field is None
        ]
    names = list(split_columns)
    lookup = {c.name: j for j, c in enumerate(enc.columns)}
    out = []
    for name in names:
        if name not in lookup:
            raise InputError(f"unknown split column {name!r}")
        out.append(lookup[name])
    if not out:
        raise InputError("split column filter selected no columns")
    return sorted(set(out))


def _next_split(
    engine: _Engine,
    active: dict[int, Subgroup],
    candidates: dict[int, CandidateSplit | None],
) -> CandidateSplit | None:
    """Highest-gain candidate over the active subgroups; lower id on equal gains.

    A gain never exceeds its subgroup's loss, so subgroups are visited
    by decreasing loss and the visit stops at the first one whose loss
    is below the best gain found: none after it can win.  Nor does a
    gain exceed the loss minus the subgroup's ``loc``, so a subgroup
    whose loss minus ``loc`` is below the best gain by more than the
    search's margin is passed over, and not cached.  Otherwise a
    subgroup's best split is searched on its first visit and kept in
    ``candidates``, keyed by subgroup id.
    """
    best: CandidateSplit | None = None
    for sg in sorted(active.values(), key=lambda sg: (-sg.loss, sg.id)):
        if best is not None and sg.loss < best.gain:
            break
        if sg.id not in candidates:
            if best is not None and sg.loss - sg.loc < best.gain:
                margin = _BOUND_MARGIN * float(engine.grams[2][sg.members].sum())
                if sg.loss - sg.loc + margin < best.gain:
                    continue
            candidates[sg.id] = engine.best_split(sg)
        cand = candidates[sg.id]
        if cand is None:
            continue
        if (
            best is None
            or cand.gain > best.gain
            or (cand.gain == best.gain and cand.subgroup_id < best.subgroup_id)
        ):
            best = cand
    return best


def run(
    enc: EncodedMatrix,
    bb=None,
    K: int = 10,
    *,
    z: int = 10,
    n_synth: int = 250,
    lam: float = 1.0,
    min_support: int = 2,
    seed: int = 0,
    threads: int = 1,
    split_columns=None,
    ns: NeighborhoodSet | None = None,
    validate: bool = True,
) -> Partition:
    """Greedy partition of the explained objects into at most K subgroups.

    When ``ns`` is not given, the neighborhoods are built and labeled
    here, and labeling draws the rows, calls the black box and forms the
    per-object Gram pieces on at most ``threads`` workers; ``threads``
    also reaches the pieces of a given ``ns`` that holds rows and outputs
    but none yet.  The split search runs on the calling thread.  Every
    stage holds BLAS to one thread (:func:`kernels.one_blas_thread`), so
    the result does not depend on ``threads``.
    """
    if K < 1:
        raise InputError(f"K must be >= 1, got {K}")
    if not (math.isfinite(lam) and lam >= 0):
        raise InputError(f"lambda must be a finite number >= 0, got {lam}")
    if min_support < 1:
        raise InputError(f"min_support must be >= 1, got {min_support}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if enc.n < 1:
        raise InputError("no explained objects")
    if ns is None:
        if bb is None:
            raise InputError("either a black box or labeled neighborhoods are required")
        ns = label(build(enc, z=z, n_synth=n_synth, seed=seed, threads=threads), bb)
    if ns.object_outputs is None:
        raise InputError("neighborhoods are missing cached black-box outputs")
    if ns.n_objects != enc.n:
        raise InputError(
            f"{ns.n_objects} neighborhoods vs {enc.n} encoded objects"
        )

    # A with block rather than a decorator, whose __wrapped__ the
    # benchmark's tracer would take for a wrapper of its own left behind.
    with kernels.one_blas_thread():
        return _greedy_partition(enc, ns, K, lam, min_support, threads, split_columns, validate)


def _greedy_partition(enc, ns, K, lam, min_support, threads, split_columns, validate) -> Partition:
    """The greedy split search of :func:`run` on labeled neighborhoods."""
    columns = _resolve_columns(enc, split_columns)
    engine = _Engine(enc, ns, lam, min_support, columns, threads)

    members = np.arange(enc.n, dtype=np.int64)
    root_model = fit_on_neighborhoods(ns, members, lam)
    root = Subgroup(
        id=0,
        members=members,
        pattern=Pattern.unrestricted(len(enc.attributes)),
        model=root_model,
        loss=subgroup_loss(ns, members, root_model),
        loc=float(engine.loc.sum()),
    )
    active: dict[int, Subgroup] = {0: root}
    candidates: dict[int, CandidateSplit | None] = {}
    next_id = 1
    trace: list[TraceEntry] = []

    while len(active) < K:
        best = _next_split(engine, active, candidates)
        if best is None:
            break
        parent = active[best.subgroup_id]
        parent_yy = float(engine.grams[2][parent.members].sum())
        if best.gain <= _GAIN_GUARD * parent_yy:
            break
        col = enc.columns[best.column]
        left = Subgroup(
            id=next_id,
            members=best.left_members,
            pattern=refine(parent.pattern, enc.attributes, col, "le", best.threshold),
            model=best.left_model,
            loss=best.left_loss,
            loc=float(engine.loc[best.left_members].sum()),
        )
        right = Subgroup(
            id=next_id + 1,
            members=best.right_members,
            pattern=refine(parent.pattern, enc.attributes, col, "gt", best.threshold),
            model=best.right_model,
            loss=best.right_loss,
            loc=float(engine.loc[best.right_members].sum()),
        )
        next_id += 2
        del active[parent.id]
        candidates.pop(parent.id, None)
        active[left.id] = left
        active[right.id] = right
        loss_after = float(sum(active[sid].loss for sid in sorted(active)))
        trace.append(
            TraceEntry(
                iteration=len(trace) + 1,
                subgroup=parent.id,
                column=col.name,
                threshold=best.threshold,
                gain=best.gain,
                loss_after=loss_after,
            )
        )

    subgroups = [active[sid] for sid in sorted(active)]
    global_loss = float(sum(sg.loss for sg in subgroups))
    partition = Partition(
        subgroups=subgroups,
        trace=trace,
        root_loss=root.loss,
        global_loss=global_loss,
        config={
            "k": K,
            "z": ns.z,
            "n_synth": ns.n_synth,
            "lambda": lam,
            "min_support": min_support,
            "seed": ns.seed,
            "split_columns": (
                split_columns
                if split_columns in (None, "non-text")
                else list(split_columns)
            ),
            "data_hash": content_hash(enc),
        },
    )
    if validate:
        validate_partition(partition, enc, K)
    return partition


def check_cover(partition: Partition, n: int, K: int | None = None) -> None:
    """At most K subgroups whose members disjointly cover 0..n-1.

    K defaults to the partition's configured budget.  Raises
    InvariantError on violation.
    """
    if K is None:
        K = int(partition.config.get("k", len(partition.subgroups)))
    if len(partition.subgroups) > K:
        raise InvariantError(
            f"{len(partition.subgroups)} subgroups exceed the budget K={K}"
        )
    seen = np.concatenate([sg.members for sg in partition.subgroups])
    if seen.size != n or not np.array_equal(np.sort(seen), np.arange(n)):
        raise InvariantError("subgroups do not disjointly cover the explained objects")


def validate_partition(partition: Partition, enc: EncodedMatrix, K: int | None = None) -> None:
    """Check the partition invariants; raises InvariantError on violation.

    The subgroups must disjointly cover every explained object, respect
    the budget, and each pattern's extent over the explained objects
    must equal the stored member set exactly.
    """
    check_cover(partition, enc.n, K)
    for sg in partition.subgroups:
        ext = extent(sg.pattern, enc)
        if not np.array_equal(ext, np.sort(sg.members)):
            raise InvariantError(
                f"subgroup {sg.id}: pattern extent does not match its members"
            )


def loss_curve(
    enc: EncodedMatrix,
    bb=None,
    K_max: int = 10,
    **params,
) -> tuple[list[tuple[int, float]], Partition]:
    """Loss after each greedy step of a single K_max run: [(K, loss), ...]."""
    partition = run(enc, bb, K_max, **params)
    return partition.curve(), partition


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def partition_to_dict(partition: Partition, enc: EncodedMatrix) -> dict:
    subgroups = []
    for sg in partition.subgroups:
        closed = closed_form(sg.pattern, enc, sg.members)
        top: dict[str, list[dict]] = {}
        for ci, cls in enumerate(enc.classes):
            ranked = feature_importance(sg.model, ci, enc.column_names)
            top[cls] = [
                {"column": name, "coefficient": coef, "share": share}
                for name, coef, share in ranked[:_TOP_FEATURES]
            ]
        subgroups.append(
            {
                "id": sg.id,
                "size": int(sg.members.size),
                "members": [int(i) for i in sg.members],
                "pattern": render(sg.pattern, enc.attributes),
                "pattern_closed": render(closed, enc.attributes),
                "conditions": pattern_to_conditions(sg.pattern, enc.attributes),
                "model": model_to_dict(sg.model, enc.column_names, enc.classes),
                "loss": sg.loss,
                "top_features": top,
            }
        )
    return {
        "config": partition.config,
        "root_loss": partition.root_loss,
        "global_loss": partition.global_loss,
        "subgroups": subgroups,
        "trace": [
            {
                "iter": t.iteration,
                "subgroup": t.subgroup,
                "column": t.column,
                "threshold": t.threshold,
                "gain": t.gain,
                "loss_after": t.loss_after,
            }
            for t in partition.trace
        ],
    }
