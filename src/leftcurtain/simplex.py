"""Exact rational linear programming via a revised primal simplex.

Constraints are given sparse: each row is a sequence of (column, coefficient)
pairs with distinct int columns in range(n), in any order, and zero
coefficients are dropped.  Phase 1 scales each row to integers and files its
entries under their columns in row order, so the columns A_j that the
pivots read are built once, straight from the rows.

Every row and the objective are scaled to integers and pivoted in revised
form with exact integer rows.  The initial basic columns (the slacks of '<='
rows and the artificials) form the identity, so after any pivots each row's
entries in those columns are a multiple of its row of B^-1, the row
operations applied so far.  Each row i is kept in lowest terms at its own
scale s_i > 0: only R_i and the right side are stored, with
R_i / s_i = (B^-1)_i and gcd(s_i, *R_i, b_i) == 1, m + 1 integers per
constraint row and per objective row.  Every other entry is computed, at
its row's scale, from the sparse input column A_j when it is needed:

    constraint row i:   T_ij = R_i . A_j
    objective row:      z_j  = s_u * z_init_j + u . A_j

where u is the objective row's R part and s_u its scale; the form holds
because z_init is zero on the initial basic columns and every pivot keeps
it.  A pivot on column c at row r works as follows:

- The pivot element is p = prow . A_c; if it is negative, p and prow are
  negated, so every scale stays positive.  Row r becomes prow at scale p,
  which is in lowest terms already: a prime dividing every entry of prow
  would divide prow . A_B(r) = s_r as well.
- A row whose entry f in column c is zero keeps its row of B^-1, so it is
  not touched.
- Any other row becomes R_i / s_i - (f / s_i) (prow / p).  With
  a = gcd(f, p), that is N / (s_i * p/a) for N = R_i * (p/a) - (f/a) * prow.
  No prime factor of p/a divides every entry of N (it would divide every
  entry of prow), so N is brought to lowest terms by its gcd with s_i
  alone: exact by construction, and no division needs a check.  N is R_i
  scaled by p/a (copied when p/a == 1) with (f/a) * prow subtracted at the
  nonzero entries of prow only.

A pivot therefore updates at most (m + 1) x (m + 1) integers (one objective
row per phase), and only in the rows whose entering entry is nonzero.  The
integers are those of the rational rows of B^-1, not Bareiss multiples of
the basis determinant, so they stay a few times shorter.

The determinant itself is kept as a counter: delta, |det B| over the start
basis, is the pivot element of the fraction-free (Bareiss) tableau, and
`LpResult.max_delta_bits` reports its largest bit length.  A pivot updates
it to delta * p / s_r, the one division left; it is checked, and a nonzero
remainder (a pivot row whose scale does not divide the determinant) raises
AssertionError.  When phase 2 ends, each basic column is checked to read
s_i in its own row.

Scales never change a decision.  The ratio test compares b_i / T_ic, both at
row i's scale, and tests the sign of T_ic with s_i > 0; pricing tests the
sign of z_j with s_u > 0, and the drive-out pivots test T_ij != 0.  So the
pivots are those of the Bareiss tableau with one common delta.

Bland's rule (lowest index entering, lowest basic index on ratio ties) makes
the pivot sequence cycle-free and deterministic; the reduced costs are
priced in column order up to the first negative one, and only the entering
column is computed for the ratio test, by one pass over the rows per
nonzero of A_c.  Pricing skips the basic columns, which the tableau flags
and every pivot updates: a basic column reads s_i in its own row and 0 in
every other row, the objective row included, so its reduced cost is
exactly 0 at any scale and it can never enter.  The search for a column
that drives a zero-level artificial out of its row skips them for the same
reason.  So the skip changes no pivot.

A solve is split at the one point where the objective enters.  `phase1`
returns the end state of phase 1 (`Phase1`: R and the right side with each
row's scale, the basis, delta and the pivot counts) and `solve_from` runs
phase 2 from it; `solve_lp` is the two in a row.  Bland's phase-1 choices
and the pivots that drive zero-level artificials out read only the phase-1
row and the constraint rows, so the end state is the same for every
objective.  The phase-2 row for the final basis is determined by that
basis: it is u = -sum_i z_init[B(i)] * R_i * (L / s_i), right side
included, at the scale L, the lcm of the scales of the rows it reads, and
reduced by its gcd.  One state therefore serves any number of objectives,
each with the pivots, vertex, duals and counts of a solve from scratch.

`phase1` remembers the end states of the last few constraint systems given
to it as tuples all the way down (rows, every row and every pair, rhs and
senses), keyed on the identity of rows, rhs and senses.  Each entry holds
those objects, so their ids are not reused while it lives, and such tuples
of numbers cannot change, so the same objects are the same system.  A
caller that solves one system for many objectives passes the same tuples
every time, and each `solve_lp` on them runs phase 2 only.  Any other input
runs phase 1 afresh.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .measure import MathError

_MAX_PIVOTS = 200_000
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}

Column = List[Tuple[int, int]]  # (row, nonzero coefficient)
Row = Sequence[Tuple[int, Fraction]]  # (column, coefficient)


class Infeasible(MathError):
    """The constraint system has no nonnegative solution."""


class Unbounded(MathError):
    """The objective is unbounded over the feasible region."""


@dataclass
class LpResult:
    """Exact solution of an LP in the form {max/min c.x : A x (sense) b, x >= 0}.

    `duals` has one entry per input row and satisfies duals . b == value; for a
    maximization they are feasible for the dual (y.A_j >= c_j on every column),
    for a minimization the reversed inequality holds.  `iterations` counts
    every pivot, `phase1_iterations` those made before phase 2 (including the
    pivots that drive zero-level artificials out of the basis), and
    `max_delta_bits` is the largest bit length that |det B| over the start
    basis reached: the common denominator of a fraction-free tableau, which
    the solver counts but does not scale its rows by.
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
    """`row` as ints over its least common denominator, and that denominator."""
    # From a list: a generator's tuple of arguments fills CPython's tuple free lists.
    denom = math.lcm(*[f.denominator for f in row])
    return [f.numerator * (denom // f.denominator) for f in row], denom


def _dot(row: Sequence[int], column: Column) -> int:
    total = 0
    for k, a in column:
        total += row[k] * a
    return total


class _Tableau:
    def __init__(
        self, columns: Sequence[Column], cost: List[int], rows: List[Sequence[int]],
        scales: List[int], basis: List[int], delta: int = 1, iterations: int = 0,
        max_delta_bits: int = 1,
    ):
        self.columns = columns    # sparse input column of every column that may enter
        self.cost = cost          # z_init of the objective row, right side last
        # R_i and the right side per constraint row, then u and the right side
        # of the objective row, each in lowest terms at its scale s_i > 0.  A
        # pivot replaces rows and never edits one.
        self.rows = rows
        self.scales = scales
        self.basis = basis        # basic column per constraint row
        # Whether each column is basic; the artificials, at most one per row,
        # are numbered after the stored columns.
        self.basic = [False] * (len(columns) + len(basis))
        for c in basis:
            self.basic[c] = True
        self.delta = delta        # |det B| over the start, counted for max_delta_bits
        self.iterations = iterations
        self.max_delta_bits = max_delta_bits

    def column(self, j: int) -> List[int]:
        """Tableau column j at its rows' scales: constraint rows, then the objective row."""
        rows = self.rows
        entries = [0] * len(rows)
        # One pass over the rows per nonzero of A_j.
        for k, a in self.columns[j]:
            entries = [e + row[k] * a for e, row in zip(entries, rows)]
        entries[-1] += self.scales[-1] * self.cost[j]
        return entries

    def pivot(self, r: int, c: int, column: List[int]) -> None:
        """Pivot column c, whose entries are `column`, into the basis at row r."""
        rows, scales = self.rows, self.scales
        prow, p = rows[r], column[r]
        if p == 0:
            raise AssertionError("zero pivot")
        # Negating the pivot row keeps every scale positive.
        if p < 0:
            p = -p
            prow = [-v for v in prow]
        delta, rest = divmod(self.delta * p, scales[r])
        if rest:
            raise AssertionError("pivot row scale does not divide the determinant")
        # prow / p, in lowest terms, is the new row r (module notes).
        nonzeros = [(k, w) for k, w in enumerate(prow) if w]
        for i, f in enumerate(column):
            if f == 0 or i == r:
                continue
            # Row i becomes N / (s_i * q) with N = R_i * q - f * prow, once
            # gcd(f, p) is cancelled.  No factor of q divides all of N, so
            # its gcd with s_i brings N to lowest terms.
            a = math.gcd(f, p)
            q, f = p // a, f // a
            new = [v * q for v in rows[i]] if q != 1 else list(rows[i])
            for k, w in nonzeros:
                new[k] -= f * w
            s = scales[i]
            g = math.gcd(s, *new)
            rows[i], scales[i] = ([v // g for v in new], s // g * q) if g > 1 else (new, s * q)
        rows[r], scales[r] = prow, p
        self.basic[self.basis[r]] = False
        self.basic[c] = True
        self.basis[r] = c
        self.delta = delta
        self.max_delta_bits = max(self.max_delta_bits, delta.bit_length())
        self.iterations += 1
        if self.iterations > _MAX_PIVOTS:
            raise AssertionError("pivot limit exceeded")

    def run(self) -> None:
        """Bland-rule simplex loop on the objective row."""
        m = len(self.basis)
        cost, basic = self.cost, self.basic
        while True:
            u, d = self.rows[m], self.scales[m]
            # A basic column's reduced cost is 0 at any scale: it never enters.
            entering = -1
            for j, col in enumerate(self.columns):
                if not basic[j] and d * cost[j] + _dot(u, col) < 0:
                    entering = j
                    break
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
    R_i and the right side of every row that is not redundant, in lowest
    terms at the row's scale in `scales`, `basis` their basic columns, and
    `row_mult` each input row's integer scale, negated where its right side
    was.  `delta` is |det B| over the start basis, which only the
    `max_delta_bits` count reads.  `iterations` and `max_delta_bits` count
    phase 1 and the drive-out pivots.  Every field is immutable, so
    `solve_from` can start any number of phase-2 runs from one state.
    """

    n: int
    columns: Tuple[Tuple[Tuple[int, int], ...], ...]
    rows: Tuple[Tuple[int, ...], ...]
    scales: Tuple[int, ...]
    basis: Tuple[int, ...]
    delta: int
    iterations: int
    max_delta_bits: int
    row_mult: Tuple[int, ...]


# One system per problem kind that lpsolver interleaves in a probe sweep:
# the constrained, the free and the chain-minimum polytope.
_REMEMBERED = 3
_remembered: "OrderedDict[tuple, Tuple[tuple, Phase1]]" = OrderedDict()


def phase1(
    n: int,
    rows: Sequence[Row],
    rhs: Sequence[Fraction],
    senses: Optional[Sequence[str]] = None,
) -> Phase1:
    """Find a basic feasible point of {x >= 0 : rows x (senses) rhs} in n variables.

    Each row is a sequence of (column, coefficient) pairs: distinct int
    columns in range(n), in any order; zero coefficients are dropped.
    senses entries are '=', '<=', '>=' (default all '=').  Raises ValueError
    on malformed input (a column out of range, not an int or named twice in
    a row, rhs or senses without one entry per row, an unknown sense) and
    Infeasible.  A system whose rows, every row and every pair are tuples is
    remembered (see the module notes); failures are not.  The memory is
    looked up first: a hit holds the very objects passed in, which were
    checked to be tuples when they were remembered.
    """
    key = (n, id(rows), id(rhs), id(senses))
    entry = _remembered.get(key)
    if entry is not None:
        _remembered.move_to_end(key)
        return entry[1]
    frozen = (
        type(rows) is tuple and type(rhs) is tuple and (senses is None or type(senses) is tuple)
        and all(type(row) is tuple and all(type(p) is tuple for p in row) for row in rows)
    )
    if not frozen:
        return _phase1(n, rows, rhs, senses)
    entry = _remembered[key] = ((rows, rhs, senses), _phase1(n, rows, rhs, senses))
    if len(_remembered) > _REMEMBERED:
        _remembered.popitem(last=False)
    return entry[1]


def _phase1(
    n: int,
    rows: Sequence[Row],
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

    # Scale every row to integers and file its nonzero entries under their
    # columns in row order; remember the per-row multiplier including the
    # sign flip used to make the right side >= 0.
    columns: List[Column] = [[] for _ in range(n)]
    b: List[int] = []
    row_mult: List[int] = []
    eff_senses: List[str] = []
    for i in range(m):
        js = [j for j, _ in rows[i]]
        for j in js:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"row {i} has column {j!r}, expected an int in range({n})")
        if len(set(js)) != len(js):
            raise ValueError(f"row {i} names a column twice")
        sense = senses[i]
        if sense not in _FLIPPED:
            raise ValueError(f"row {i} has sense {sense!r}, expected '=', '<=' or '>='")
        ints, denom = _scale_to_int([_fraction(a) for _, a in rows[i]] + [_fraction(rhs[i])])
        mult = denom
        if ints[-1] < 0:
            ints = [-v for v in ints]
            mult = -mult
            sense = _FLIPPED[sense]
        for j, v in zip(js, ints):
            if v:
                columns[j].append((i, v))
        b.append(ints[-1])
        row_mult.append(mult)
        eff_senses.append(sense)

    # Column layout: structural | slack/surplus | artificial.  Artificials
    # never enter, so only the first two groups get a stored column.
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
    z1.append(-sum(b[i] for i in art_rows))
    tab_rows = [[int(k == i) for k in range(m)] + [b[i]] for i in range(m)]
    tab = _Tableau(columns, z1, tab_rows + [[0] * m + [z1[-1]]], [1] * (m + 1), basis)
    if art_rows:
        tab.run()
        if tab.rows[m][-1] != 0:
            raise Infeasible("phase 1 terminated with positive artificial mass")
        # Drive remaining zero-level artificials out of the basis.  A basic
        # column reads 0 in every row but its own, so only the others are read.
        for i in range(m):
            if tab.basis[i] >= n_real:
                row = tab.rows[i]
                pivot_col = next(
                    (j for j, col in enumerate(columns) if not tab.basic[j] and _dot(row, col)), None
                )
                if pivot_col is not None:
                    tab.pivot(i, pivot_col, tab.column(pivot_col))

    # Redundant rows: basic artificial with no pivotable entry left.
    keep = [i for i in range(m) if tab.basis[i] < n_real]
    return Phase1(
        n=n,
        columns=tuple(tuple(col) for col in columns),
        rows=tuple(tuple(tab.rows[i]) for i in keep),
        scales=tuple(tab.scales[i] for i in keep),
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

    # Phase-2 row (z - c) priced out against the basis (see the module
    # notes), at the lcm of the scales of the rows it reads.
    z2 = [-v for v in obj_ints] + [0] * (len(state.columns) - n) + [0]
    priced = [(row, s, z2[col]) for row, s, col in zip(state.rows, state.scales, state.basis) if z2[col]]
    scale = math.lcm(*(s for _, s, _ in priced))
    u = [0] * (m + 1)
    for row, s, c in priced:
        k = c * (scale // s)
        u = [a - k * b for a, b in zip(u, row)]
    g = math.gcd(scale, *u)
    tab = _Tableau(
        state.columns, z2, [*state.rows, [a // g for a in u]], [*state.scales, scale // g],
        list(state.basis), state.delta, state.iterations, state.max_delta_bits,
    )
    tab.run()

    x = [Fraction(0)] * n
    for row, s, col in zip(tab.rows, tab.scales, tab.basis):
        if _dot(row, state.columns[col]) != s:
            raise AssertionError("basic column is not the scaled identity")
        if col < n:
            x[col] = Fraction(row[-1], s)
    u = tab.rows[-1]
    # A minimization ran on the negated objective: negate its value and duals back.
    denom = tab.scales[-1] * obj_denom if maximize else -tab.scales[-1] * obj_denom
    # Row i's dual is the phase-2 row's entry on its initial basic column; a
    # redundant row's artificial stayed basic, so that entry is zero.
    duals = [Fraction(u[i] * state.row_mult[i], denom) for i in range(m)]

    basis_structural = tuple(sorted(col for col in tab.basis if col < n))
    return LpResult(
        value=Fraction(u[-1], denom),
        x=x,
        duals=duals,
        basis=basis_structural,
        iterations=tab.iterations,
        phase1_iterations=state.iterations,
        max_delta_bits=tab.max_delta_bits,
    )


def solve_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Row],
    rhs: Sequence[Fraction],
    senses: Optional[Sequence[str]] = None,
    maximize: bool = True,
) -> LpResult:
    """Solve {max (or min) objective . x : rows x (senses) rhs, x >= 0} exactly.

    rows, rhs and senses are those of `phase1`, with one column per
    objective entry: sparse (column, coefficient) pairs per row.  Raises
    ValueError on malformed input and Infeasible as `phase1` does, and
    Unbounded.  Deterministic: identical inputs give identical pivots and
    an identical optimal vertex.
    """
    return solve_from(phase1(len(objective), rows, rhs, senses), objective, maximize)
