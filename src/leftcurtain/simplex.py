"""Exact rational linear programming via a revised primal simplex.

Every row and the objective are scaled to integers and pivoted fraction-free
(Bareiss): a pivot on element p replaces every other tableau entry a by
(a*p - f*b)/delta, where f is the row's entry in the pivot column, b the
pivot row's entry and delta the previous pivot element, kept positive.
Sylvester's determinant identity makes the division exact.

The tableau is kept in revised form.  The initial basic columns (the slacks
of '<=' rows and the artificials) form the identity, so after any pivots the
tableau's entries in those columns are R = delta * B^-1, the row operations
applied so far, and only R and the right-hand side are stored: m + 1
integers per constraint row and per objective row.  Every other entry is
computed from the sparse input column A_j when it is needed:

    constraint row i:   T_ij = R_i . A_j
    objective row:      z_j  = delta * z_init_j + u . A_j

where u is the objective row's R part; the form holds because z_init is zero
on the initial basic columns and every pivot z <- (p*z - f*prow)/delta keeps
it.  A pivot therefore updates at most (m + 1) x (m + 1) integers (one
objective row per phase), not the whole tableau.  Every division is
verified at runtime: with delta > 0 each floor remainder lies in [0, delta),
so a row divides exactly if and only if sum(num) == delta * sum(num // delta).

Bland's rule (lowest index entering, lowest basic index on ratio ties) makes
the pivot sequence cycle-free and deterministic; the reduced costs are
priced in column order up to the first negative one, and only the entering
column is computed for the ratio test.

A solve is split at the one point where the objective enters.  `phase1`
returns the end state of phase 1 (`Phase1`: R and the right side, the basis,
delta and the pivot counts) and `solve_from` runs phase 2 from it;
`solve_lp` is the two in a row.  Bland's phase-1 choices and the pivots that
drive zero-level artificials out read only the phase-1 row and the
constraint rows, so the end state is the same for every objective.  The
phase-2 row for the final basis is determined by that basis: it is
u = -sum_i z_init[B(i)] * R_i, right side included.  One state therefore
serves any number of objectives, each with the pivots, vertex, duals and
counts of a solve from scratch.

`phase1` remembers the end states of the last few constraint systems given
to it as tuples of tuples, keyed on the identity of rows, rhs and senses.
Each entry holds those objects, so their ids are not reused while it lives,
and a tuple of tuples of numbers cannot change, so the same objects are the
same system.  A caller that solves one system for many objectives passes
the same tuples every time, and each `solve_lp` on them runs phase 2 only.
Any other input runs phase 1 afresh.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

_MAX_PIVOTS = 200_000
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}

Column = List[Tuple[int, int]]  # (row, nonzero coefficient)


class Infeasible(Exception):
    """The constraint system has no nonnegative solution."""


class Unbounded(Exception):
    """The objective is unbounded over the feasible region."""


@dataclass
class LpResult:
    """Exact solution of an LP in the form {max/min c.x : A x (sense) b, x >= 0}.

    `duals` has one entry per input row and satisfies duals . b == value; for a
    maximization they are feasible for the dual (y.A_j >= c_j on every column),
    for a minimization the reversed inequality holds.  `iterations` counts
    every pivot, `phase1_iterations` those made before phase 2 (including the
    pivots that drive zero-level artificials out of the basis), and
    `max_delta_bits` is the largest bit length the common denominator reached.
    """

    value: Fraction
    x: List[Fraction]
    duals: List[Fraction]
    basis: Tuple[int, ...]
    iterations: int
    phase1_iterations: int
    max_delta_bits: int


def _fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _scale_to_int(row: Sequence[Fraction]) -> Tuple[List[int], int]:
    denom = math.lcm(*(f.denominator for f in row)) if row else 1
    return [f.numerator * (denom // f.denominator) for f in row], denom


def _dot(row: List[int], column: Column) -> int:
    return sum(row[k] * a for k, a in column)


class _Tableau:
    def __init__(
        self, columns: Sequence[Column], cost: List[int], rows: List[Sequence[int]],
        basis: List[int], delta: int = 1, iterations: int = 0, max_delta_bits: int = 1,
    ):
        self.columns = columns    # sparse input column of every column that may enter
        self.cost = cost          # z_init of the objective row, right side last
        # R_i and the right side per constraint row, then u and the right side
        # of the objective row.  A pivot replaces rows and never edits one.
        self.rows = rows
        self.basis = basis        # basic column per constraint row
        self.delta = delta
        self.iterations = iterations
        self.max_delta_bits = max_delta_bits

    def column(self, j: int) -> List[int]:
        """Tableau column j: one entry per constraint row, then the objective row's."""
        col = self.columns[j]
        entries = [_dot(row, col) for row in self.rows]
        entries[-1] += self.delta * self.cost[j]
        return entries

    def pivot(self, r: int, c: int, column: List[int]) -> None:
        """Pivot column c, whose entries are `column`, into the basis at row r."""
        rows, delta = self.rows, self.delta
        prow = rows[r]
        p = column[r]
        if p == 0:
            raise AssertionError("zero pivot")
        # Negating every row keeps delta positive; fold the sign into p and f.
        sign = 1 if p > 0 else -1
        p *= sign
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = column[i] * sign
            if f == 0:
                if p == delta:
                    continue
                num = [v * p for v in row]
            else:
                num = [v * p - f * w for v, w in zip(row, prow)]
            if delta != 1:
                quot = [v // delta for v in num]
                if sum(num) != delta * sum(quot):
                    raise AssertionError("fraction-free pivot produced a non-integer entry")
                num = quot
            rows[i] = num
        if sign < 0:
            rows[r] = [-v for v in prow]
        self.basis[r] = c
        self.delta = p
        self.max_delta_bits = max(self.max_delta_bits, p.bit_length())
        self.iterations += 1
        if self.iterations > _MAX_PIVOTS:
            raise AssertionError("pivot limit exceeded")

    def run(self) -> None:
        """Bland-rule simplex loop on the objective row."""
        m = len(self.basis)
        cost = self.cost
        while True:
            u, delta = self.rows[m], self.delta
            entering = next(
                (j for j, col in enumerate(self.columns) if delta * cost[j] + _dot(u, col) < 0),
                -1,
            )
            if entering < 0:
                return
            column = self.column(entering)
            leave = -1
            best_num = best_den = 0
            for i in range(m):
                a = column[i]
                if a > 0:
                    b = self.rows[i][-1]
                    if (
                        leave < 0
                        or b * best_den < best_num * a
                        or (b * best_den == best_num * a and self.basis[i] < self.basis[leave])
                    ):
                        leave, best_num, best_den = i, b, a
            if leave < 0:
                raise Unbounded("no blocking row for entering column")
            self.pivot(leave, entering, column)


@dataclass(frozen=True)
class Phase1:
    """The end state of phase 1 on one constraint system, for any objective.

    `columns` are the sparse structural and slack/surplus columns, `rows`
    R_i and the right side of every row that is not redundant, `basis` their
    basic columns, and `row_mult` each input row's integer scale, negated
    where its right side was.  `iterations` and `max_delta_bits` count
    phase 1 and the drive-out pivots.  Every field is immutable, so
    `solve_from` can start any number of phase-2 runs from one state.
    """

    n: int
    columns: Tuple[Tuple[Tuple[int, int], ...], ...]
    rows: Tuple[Tuple[int, ...], ...]
    basis: Tuple[int, ...]
    delta: int
    iterations: int
    max_delta_bits: int
    row_mult: Tuple[Fraction, ...]


# One system per problem kind that lpsolver interleaves in a probe sweep:
# the constrained, the free and the chain-minimum polytope.
_REMEMBERED = 3
_remembered: "OrderedDict[tuple, Tuple[tuple, Phase1]]" = OrderedDict()


def phase1(
    n: int,
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    senses: Optional[Sequence[str]] = None,
) -> Phase1:
    """Find a basic feasible point of {x >= 0 : rows x (senses) rhs} in n variables.

    senses entries are '=', '<=', '>=' (default all '=').  Raises ValueError
    on malformed input (a row without n coefficients, rhs or senses without
    one entry per row, an unknown sense) and Infeasible.  Tuple input is
    remembered (see the module notes); failures are not.
    """
    frozen = (
        type(rows) is tuple and type(rhs) is tuple and (senses is None or type(senses) is tuple)
        and all(type(row) is tuple for row in rows)
    )
    if not frozen:
        return _phase1(n, rows, rhs, senses)
    key = (n, id(rows), id(rhs), id(senses))
    entry = _remembered.get(key)
    if entry is not None:
        _remembered.move_to_end(key)
    else:
        entry = _remembered[key] = ((rows, rhs, senses), _phase1(n, rows, rhs, senses))
        if len(_remembered) > _REMEMBERED:
            _remembered.popitem(last=False)
    return entry[1]


def _phase1(
    n: int,
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    senses: Optional[Sequence[str]],
) -> Phase1:
    m = len(rows)
    if senses is None:
        senses = ["="] * m
    if len(rhs) != m:
        raise ValueError(f"rhs has {len(rhs)} entries for {m} rows")
    if len(senses) != m:
        raise ValueError(f"senses has {len(senses)} entries for {m} rows")
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError(f"row {i} has {len(rows[i])} coefficients, expected {n}")
        if senses[i] not in _FLIPPED:
            raise ValueError(f"row {i} has sense {senses[i]!r}, expected '=', '<=' or '>='")

    # Scale every row to integers; remember the per-row multiplier including
    # the sign flip used to make the right side >= 0.
    int_rows: List[List[int]] = []
    row_mult: List[Fraction] = []
    eff_senses: List[str] = []
    for i in range(m):
        frac_row = [_fraction(v) for v in rows[i]] + [_fraction(rhs[i])]
        ints, denom = _scale_to_int(frac_row)
        mult = Fraction(denom)
        sense = senses[i]
        if ints[-1] < 0:
            ints = [-v for v in ints]
            mult = -mult
            sense = _FLIPPED[sense]
        int_rows.append(ints)
        row_mult.append(mult)
        eff_senses.append(sense)

    # Column layout: structural | slack/surplus | artificial.  Artificials
    # never enter, so only the first two groups get a stored column.
    columns: List[Column] = [
        [(i, ints[j]) for i, ints in enumerate(int_rows) if ints[j]] for j in range(n)
    ]
    basis: List[int] = [-1] * m
    for i, sense in enumerate(eff_senses):
        if sense == "<=":
            basis[i] = len(columns)
            columns.append([(i, 1)])
        elif sense == ">=":
            columns.append([(i, -1)])
    n_real = len(columns)
    art_rows = [i for i, sense in enumerate(eff_senses) if sense != "<="]
    for k, i in enumerate(art_rows):
        basis[i] = n_real + k

    # Phase-1 row for max(-sum of artificials), priced out: initial basic
    # columns cost nothing.
    z1 = [-sum(a for i, a in col if eff_senses[i] != "<=") for col in columns]
    z1.append(-sum(int_rows[i][n] for i in art_rows))
    tab_rows = [[int(k == i) for k in range(m)] + [ints[n]] for i, ints in enumerate(int_rows)]
    tab = _Tableau(columns, z1, tab_rows + [[0] * m + [z1[-1]]], basis)
    if art_rows:
        tab.run()
        if tab.rows[m][-1] != 0:
            raise Infeasible("phase 1 terminated with positive artificial mass")
        # Drive remaining zero-level artificials out of the basis.
        for i in range(m):
            if tab.basis[i] >= n_real:
                row = tab.rows[i]
                pivot_col = next((j for j, col in enumerate(columns) if _dot(row, col)), None)
                if pivot_col is not None:
                    tab.pivot(i, pivot_col, tab.column(pivot_col))

    # Redundant rows: basic artificial with no pivotable entry left.
    keep = [i for i in range(m) if tab.basis[i] < n_real]
    return Phase1(
        n=n,
        columns=tuple(tuple(col) for col in columns),
        rows=tuple(tuple(tab.rows[i]) for i in keep),
        basis=tuple(tab.basis[i] for i in keep),
        delta=tab.delta,
        iterations=tab.iterations,
        max_delta_bits=tab.max_delta_bits,
        row_mult=tuple(row_mult),
    )


def solve_from(state: Phase1, objective: Sequence[Fraction], maximize: bool = True) -> LpResult:
    """Run phase 2 for `objective` from the end state of phase 1.

    Gives the `LpResult` of `solve_lp` on the rows that `state` was built
    from, pivot counts included; `state` is not changed.  Raises ValueError
    when the objective does not have `state.n` coefficients, and Unbounded.
    """
    n = state.n
    if len(objective) != n:
        raise ValueError(f"objective has {len(objective)} coefficients, expected {n}")
    obj = [_fraction(v) for v in objective]
    if not maximize:
        obj = [-v for v in obj]
    obj_ints, obj_denom = _scale_to_int(obj)
    m = len(state.row_mult)

    # Phase-2 row (z - c) priced out against the basis (see the module notes).
    z2 = [-v for v in obj_ints] + [0] * (len(state.columns) - n) + [0]
    u = [0] * (m + 1)
    for row, col in zip(state.rows, state.basis):
        c = z2[col]
        if c:
            u = [a - c * b for a, b in zip(u, row)]
    tab = _Tableau(
        state.columns, z2, [*state.rows, u], list(state.basis),
        state.delta, state.iterations, state.max_delta_bits,
    )
    tab.run()

    delta = tab.delta
    x = [Fraction(0)] * n
    for row, col in zip(tab.rows, tab.basis):
        if _dot(row, state.columns[col]) != delta:
            raise AssertionError("basic column is not the scaled identity")
        if col < n:
            x[col] = Fraction(row[-1], delta)
    u = tab.rows[-1]
    raw_value = Fraction(u[-1], delta) / obj_denom

    # Row i's dual is the phase-2 row's entry on its initial basic column; a
    # redundant row's artificial stayed basic, so that entry is zero.
    duals = [Fraction(u[i], delta) * state.row_mult[i] / obj_denom for i in range(m)]

    if not maximize:
        raw_value = -raw_value
        duals = [-y for y in duals]

    basis_structural = tuple(sorted(col for col in tab.basis if col < n))
    return LpResult(
        value=raw_value,
        x=x,
        duals=duals,
        basis=basis_structural,
        iterations=tab.iterations,
        phase1_iterations=state.iterations,
        max_delta_bits=tab.max_delta_bits,
    )


def solve_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    senses: Optional[Sequence[str]] = None,
    maximize: bool = True,
) -> LpResult:
    """Solve {max (or min) objective . x : rows x (senses) rhs, x >= 0} exactly.

    senses entries are '=', '<=', '>=' (default all '=').  Raises ValueError
    on malformed input (a row without one coefficient per objective entry,
    rhs or senses without one entry per row, an unknown sense), and
    Infeasible or Unbounded.  Deterministic: identical inputs give identical
    pivots and an identical optimal vertex.
    """
    return solve_from(phase1(len(objective), rows, rhs, senses), objective, maximize)
