"""Finite-support geometry of transport supports.

Left-monotonicity is the no-crossing rule: among paths that agree up to
date t-1, a path starting strictly to the right may not step in between two
continuations at date t.  Nondegeneracy requires every up-move to be matched
by a down-move from the same history and vice versa.  Both are verified by
exhaustive scans of `SupportSet.branches(t)`, which groups consecutive
points of the sorted tuple that `PathMeasure` builds, so it reads histories
and their values in increasing order and a failed scan's witness is the
first in history order, date by date, as in `coupling._histories`.  The
scans read the groups off the support's integer view (`_path_lattice`,
shared with the `PathMeasure` by `SupportSet.of`), so they compare ints,
and map a witness back to the points by index.  The
competitor search reads each history's mass and barycenter from that walk,
hashing no position, and solves an exact LP over reweightings that preserve
the history projection, the last marginal, and all conditional barycenters.
Only that search loads `decomposition` and `simplex`, so the scans run without them.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .coupling import Path, PathMeasure, _histories, _path_lattice, _PathView
from .measure import DiscreteMeasure, _Value, rat

if TYPE_CHECKING:
    from .decomposition import StepDecomposition


class SupportSet(_Value):
    """A finite set of support paths in R^(n+1), read and checked by
    `PathMeasure`: `points` is its support, sorted and distinct."""

    __slots__ = ("n", "points")
    n: int
    points: Tuple[Path, ...]

    def __init__(self, n: int, points):
        support = PathMeasure(n, ((p, 1) for p in points)).support
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", support)

    @staticmethod
    def of(P: PathMeasure) -> "SupportSet":
        """The support of `P`, taken as it is: `P.support` is already sorted
        and distinct, and its integer view is `P`'s, shared."""
        gamma = object.__new__(SupportSet)
        object.__setattr__(gamma, "n", P.n)
        object.__setattr__(gamma, "points", P.support)
        object.__setattr__(gamma, "_ints", P._lattice())
        return gamma

    def _lattice_of(self) -> _PathView:
        return _path_lattice(self.points)

    def branches(self, t: int) -> Tuple[Tuple[Path, List[Fraction]], ...]:
        """(history x_0..x_{t-1}, the values x_t that follow it) pairs, grouped
        from consecutive points: histories and each one's values increasing and distinct."""
        groups = groupby(self.points, lambda p: p[:t])
        return tuple((h, [y for y, _ in groupby(p[t] for p in group)]) for h, group in groups)


class CrossingWitness(NamedTuple):
    t: int
    history: Path
    y_minus: Fraction
    y_plus: Fraction
    other_history: Path
    y_prime: Fraction


def _int_branches(rows: Sequence[Tuple[int, ...]], t: int) -> List[Tuple[int, int, List[int]]]:
    """`SupportSet.branches(t)` on the int rows of its view, by index:
    (start, stop, ys) per history, the rows start..stop-1 sharing it and ys
    their distinct values at t, increasing."""
    groups, start = [], 0
    for _, group in groupby(rows, itemgetter(slice(0, t))):
        ys = [row[t] for row in group]
        groups.append((start, start + len(ys), list(dict.fromkeys(ys))))
        start += len(ys)
    return groups


def is_left_monotone_set(gamma: SupportSet) -> Tuple[bool, Optional[CrossingWitness]]:
    """Scan every time projection for the forbidden crossing configuration.

    A violation is a pair of continuations y- < y+ of one history and a third
    path from a strictly larger starting point whose date-t value lies
    strictly between them.  The witness is the first such history in
    `branches` order, date by date, with its least and greatest values, the
    first other history in that order, and its least value in between.  The
    scan compares the ints of `gamma`'s view; the witness is read back from
    the points by index.
    """
    points = gamma.points
    _, rows = gamma._lattice()
    for t in range(1, gamma.n + 1 if points else 1):
        groups = _int_branches(rows, t)
        starts = [rows[start][0] for start, _, _ in groups]
        # each history's values end with one above every value at t, so a
        # value above lo is always found and is in between if below hi
        top = max(row[t] for row in rows) + 1
        values = [[*ys, top] for _, _, ys in groups]
        for start, stop, ys in groups:
            if len(ys) == 1:
                continue
            lo, hi = ys[0], ys[-1]
            for i in range(bisect_right(starts, rows[start][0]), len(groups)):
                y = values[i][bisect_right(values[i], lo)]
                if y < hi:
                    begin, end, _ = groups[i]
                    crossing = next(k for k in range(begin, end) if rows[k][t] == y)
                    return False, CrossingWitness(
                        t, points[start][:t], points[start][t], points[stop - 1][t], points[begin][:t], points[crossing][t]
                    )
    return True, None


class DegeneracyWitness(NamedTuple):
    t: int
    history: Path
    y: Fraction


def is_nondegenerate_set(gamma: SupportSet) -> Tuple[bool, Optional[DegeneracyWitness]]:
    """Every up-move needs a matching down-move from the same history.  The
    witness is the first one-sided history in `branches` order, date by date,
    with its greatest value (up-moves only) or its least (down-moves only).
    Values of dates t - 1 and t are compared on the product of their scales."""
    points = gamma.points
    scales, rows = gamma._lattice()
    for t in range(1, gamma.n + 1 if points else 1):
        for start, stop, ys in _int_branches(rows, t):
            x = rows[start][t - 1] * scales[t]
            up, down = ys[-1] * scales[t - 1] > x, ys[0] * scales[t - 1] < x
            if up != down:
                return False, DegeneracyWitness(t, points[start][:t], points[stop - 1 if up else start][t])
    return True, None


class Improvement(NamedTuple):
    competitor: PathMeasure
    value: Fraction
    baseline: Fraction


def find_improving_competitor(
    pi: PathMeasure,
    reward,
    effective_domain: Sequence[StepDecomposition],
    marginal: Optional[DiscreteMeasure] = None,
) -> Optional[Improvement]:
    """Search for a strictly better competitor of pi for the given reward.

    A competitor keeps the projection onto the first t coordinates, the last
    marginal, and every conditional barycenter, and must live inside the
    effective domain.  Returns the improving reweighting found by an exact
    LP, or None when pi is already maximal in its competitor class.

    The candidate grid for the new last coordinate is the union of the
    values appearing in pi with the support of `marginal` (the ambient
    marginal at the last date), when given.
    """
    from .decomposition import effective_domain_contains
    from .simplex import solve_lp

    t = pi.n
    if len(effective_domain) != t:
        raise ValueError("need one step decomposition per step of pi")
    last = pi.marginal(t)
    extra = marginal.support if marginal is not None else ()
    grid = [y for y, _ in groupby(sorted((*last.support, *extra)))]

    # Per history its mass and barycenter rows, then one row per last value.
    cols: List[Tuple[Path, Fraction]] = []
    rows: List[List[Tuple[int, Fraction]]] = []
    rhs: List[Fraction] = []
    last_rows: List[List[Tuple[int, Fraction]]] = [[] for _ in grid]
    one = Fraction(1)
    for h, group in _histories(pi.paths, t):
        ks = []
        for i, y in enumerate(grid):
            if effective_domain_contains(effective_domain, h + (y,)) is not None:
                ks.append(len(cols))
                last_rows[i].append((len(cols), one))
                cols.append((h, y))
        rows += [[(k, one) for k in ks], [(k, cols[k][1]) for k in ks]]
        kernel = list(group)
        rhs += [sum(w for _, w in kernel), sum(w * y for y, w in kernel)]
    if not cols:
        return None
    rows += last_rows
    rhs += map(last.weight_at, grid)

    objective = [rat(reward(h + (y,))) for h, y in cols]
    result = solve_lp(objective, rows, rhs)
    baseline = pi.expectation(reward)
    if result.value <= baseline:
        return None
    competitor = PathMeasure(
        t, ((cols[k][0] + (cols[k][1],), v) for k, v in enumerate(result.x) if v != 0)
    )
    return Improvement(competitor, result.value, baseline)
