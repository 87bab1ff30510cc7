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
it.  A pivot therefore updates at most (m + 2) x (m + 1) integers (the
phase-1 row is dropped after phase 1), not the whole tableau.  Every
division is verified at runtime: with delta > 0 each floor remainder lies in
[0, delta), so a row divides exactly if and only if
sum(num) == delta * sum(num // delta).

Bland's rule (lowest index entering, lowest basic index on ratio ties) makes
the pivot sequence cycle-free and deterministic; the reduced costs are
priced in column order up to the first negative one, and only the entering
column is computed for the ratio test.
"""

from __future__ import annotations

import math
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
        self, columns: List[Column], costs: List[List[int]], rhs: List[int], basis: List[int]
    ):
        m = len(rhs)
        self.columns = columns    # sparse input column of every column that may enter
        self.costs = costs        # z_init per objective row (phase 2, 1), right side last
        # R_i and the right side per constraint row, then u and the right side
        # per objective row.
        self.rows = [[int(k == i) for k in range(m)] + [b] for i, b in enumerate(rhs)]
        self.rows += [[0] * m + [cost[-1]] for cost in costs]
        self.basis = basis        # basic column per constraint row
        self.delta = 1
        self.iterations = 0
        self.max_delta_bits = 1

    def column(self, j: int) -> List[int]:
        """Tableau column j: one entry per constraint row, then per objective row."""
        col = self.columns[j]
        m = len(self.basis)
        entries = [_dot(row, col) for row in self.rows[:m]]
        entries += [
            self.delta * cost[j] + _dot(u, col) for cost, u in zip(self.costs, self.rows[m:])
        ]
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

    def run(self, objective: int) -> None:
        """Bland-rule simplex loop on the given objective row (0: phase 2, 1: phase 1)."""
        m = len(self.basis)
        cost = self.costs[objective]
        while True:
            u, delta = self.rows[m + objective], self.delta
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
    n = len(objective)
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
    obj = [_fraction(v) for v in objective]
    if not maximize:
        obj = [-v for v in obj]

    # Scale every row (and the objective) to integers; remember the per-row
    # multiplier including the sign flip used to make the right side >= 0.
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
    obj_ints, obj_denom = _scale_to_int(obj)

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

    # Phase-2 objective row (z - c) and phase-1 row for max(-sum of
    # artificials), both priced out: initial basic columns cost nothing.
    z2 = [-v for v in obj_ints] + [0] * (n_real - n) + [0]
    z1 = [-sum(a for i, a in col if eff_senses[i] != "<=") for col in columns]
    z1.append(-sum(int_rows[i][n] for i in art_rows))
    tab = _Tableau(columns, [z2, z1], [ints[n] for ints in int_rows], basis)

    if art_rows:
        tab.run(1)
        if tab.rows[m + 1][-1] != 0:
            raise Infeasible("phase 1 terminated with positive artificial mass")
        # Drive remaining zero-level artificials out of the basis.
        for i in range(m):
            if tab.basis[i] >= n_real:
                row = tab.rows[i]
                pivot_col = next((j for j, col in enumerate(columns) if _dot(row, col)), None)
                if pivot_col is not None:
                    tab.pivot(i, pivot_col, tab.column(pivot_col))
    phase1_iterations = tab.iterations

    # Redundant rows: basic artificial with no pivotable entry left.  The
    # phase-1 row is no longer needed.
    keep = [i for i in range(m) if tab.basis[i] < n_real]
    tab.rows = [tab.rows[i] for i in keep] + [tab.rows[m]]
    tab.basis = [tab.basis[i] for i in keep]
    tab.costs = [z2]
    tab.run(0)

    delta = tab.delta
    x = [Fraction(0)] * n
    for row, col in zip(tab.rows, tab.basis):
        if _dot(row, columns[col]) != delta:
            raise AssertionError("basic column is not the scaled identity")
        if col < n:
            x[col] = Fraction(row[-1], delta)
    u = tab.rows[-1]
    raw_value = Fraction(u[-1], delta) / obj_denom

    # Row i's dual is the phase-2 row's entry on its initial basic column; a
    # redundant row's artificial stayed basic, so that entry is zero.
    duals = [Fraction(u[i], delta) * row_mult[i] / obj_denom for i in range(m)]

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
        phase1_iterations=phase1_iterations,
        max_delta_bits=tab.max_delta_bits,
    )
