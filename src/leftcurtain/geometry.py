"""Finite-support geometry of transport supports.

Left-monotonicity is the no-crossing rule: among paths that agree up to
date t-1, a path starting strictly to the right may not step in between two
continuations at date t.  Nondegeneracy requires every up-move to be matched
by a down-move from the same history and vice versa.  Both are verified by
exhaustive scans of `SupportSet.branches(t)`, which groups consecutive
points of the sorted tuple that `PathMeasure` builds, so it reads histories
and their values in increasing order and a failed scan's witness is the
first in history order, date by date, as in `coupling._histories`.  The
competitor search reads each history's mass and barycenter from that walk,
hashing no position, and solves an exact LP over reweightings that preserve
the history projection, the last marginal, and all conditional barycenters.
Only that search loads `decomposition` and `simplex`, so the scans run without them.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import groupby
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .coupling import Path, PathMeasure, _histories
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
        """The support of `P`, taken as it is: `P.support` is already sorted and distinct."""
        gamma = object.__new__(SupportSet)
        object.__setattr__(gamma, "n", P.n)
        object.__setattr__(gamma, "points", P.support)
        return gamma

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


def is_left_monotone_set(gamma: SupportSet) -> Tuple[bool, Optional[CrossingWitness]]:
    """Scan every time projection for the forbidden crossing configuration.

    A violation is a pair of continuations y- < y+ of one history and a third
    path from a strictly larger starting point whose date-t value lies
    strictly between them.  The witness is the first such history in
    `branches` order, date by date, with its least and greatest values, the
    first other history in that order, and its least value in between.
    """
    for t in range(1, gamma.n + 1 if gamma.points else 1):
        groups = gamma.branches(t)
        spreads = ((h, ys[0], ys[-1]) for h, ys in groups if len(ys) > 1)
        for history, lo, hi in spreads:
            for other, ys in groups[bisect_right(groups, history[0], key=lambda group: group[0][0]):]:
                i = bisect_right(ys, lo)
                if i < len(ys) and ys[i] < hi:
                    return False, CrossingWitness(t, history, lo, hi, other, ys[i])
    return True, None


class DegeneracyWitness(NamedTuple):
    t: int
    history: Path
    y: Fraction


def is_nondegenerate_set(gamma: SupportSet) -> Tuple[bool, Optional[DegeneracyWitness]]:
    """Every up-move needs a matching down-move from the same history.  The
    witness is the first one-sided history in `branches` order, date by date,
    with its greatest value (up-moves only) or its least (down-moves only)."""
    for t in range(1, gamma.n + 1 if gamma.points else 1):
        for history, ys in gamma.branches(t):
            up, down = ys[-1] > history[-1], ys[0] < history[-1]
            if up != down:
                return False, DegeneracyWitness(t, history, ys[-1] if up else ys[0])
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
