"""Shared instance generators, independent LP oracles and slow references.

The generators build random marginal chains by mean-preserving spreads, so
convex order holds by construction.  The LP oracles solve small LPs directly
on the raw simplex engine, and the slow references are the direct per-point
and per-atom algorithms; neither shares code with the combinatorial
implementations they are used to check.  `oracle_solve_lp` is the dense
simplex tableau that the revised engine replaced.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest

from leftcurtain import DiscreteMeasure, NotInPositiveConvexOrder, PathMeasure, add, subtract
from leftcurtain import simplex
from leftcurtain.simplex import Infeasible, LpResult, Unbounded, solve_lp

F = Fraction


def measure(pairs) -> DiscreteMeasure:
    return DiscreteMeasure(pairs)


# --- named instances used across modules -----------------------------------


@pytest.fixture
def phase1_runs(monkeypatch):
    """Every phase-1 run that `simplex.phase1` does not answer from its
    memory, which starts empty."""
    runs = []
    original = simplex._phase1

    def run(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(simplex, "_phase1", run)
    monkeypatch.setattr(simplex, "_remembered", type(simplex._remembered)())
    return runs


@pytest.fixture
def rigid_marginals():
    """Three marginals admitting exactly one martingale transport."""
    return [
        DiscreteMeasure.dirac(0),
        measure([(-1, F(1, 2)), (1, F(1, 2))]),
        measure([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))]),
    ]


@pytest.fixture
def curtain_gap_marginals():
    """Marginals whose (0,2)-projection is not of one-step Left-Curtain type."""
    return [
        measure([(-1, F(1, 2)), (1, F(1, 2))]),
        measure([(-2, F(1, 2)), (2, F(1, 2))]),
        measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))]),
    ]


@pytest.fixture
def nonmarkov_marginals():
    return [
        measure([(0, F(1, 2)), (1, F(1, 2))]),
        measure([(0, F(3, 4)), (2, F(1, 4))]),
        measure([(-1, F(1, 8)), (0, F(1, 2)), (1, F(1, 8)), (2, F(1, 4))]),
    ]


@pytest.fixture
def nonunique_family():
    """Dirac start, two distinct left-monotone transports with equal projections."""
    marginals = [
        DiscreteMeasure.dirac(0),
        measure([(-1, F(1, 2)), (1, F(1, 2))]),
        measure([(-2, F(3, 8)), (0, F(1, 4)), (2, F(3, 8))]),
    ]
    p_left = PathMeasure(
        2,
        [
            ((0, -1, -2), F(1, 4)),
            ((0, -1, 0), F(1, 4)),
            ((0, 1, -2), F(1, 8)),
            ((0, 1, 2), F(3, 8)),
        ],
    )
    p_right = PathMeasure(
        2,
        [
            ((0, -1, -2), F(3, 8)),
            ((0, -1, 2), F(1, 8)),
            ((0, 1, 0), F(1, 4)),
            ((0, 1, 2), F(1, 4)),
        ],
    )
    return marginals, p_left, p_right


# --- random instance generators ---------------------------------------------


def random_measure(
    rng: random.Random,
    max_atoms: int = 4,
    span: int = 6,
    max_den: int = 4,
    normalize: bool = False,
) -> DiscreteMeasure:
    k = rng.randint(1, max_atoms)
    xs = rng.sample(range(-span, span + 1), k)
    pairs = [
        (F(x), F(rng.randint(1, 4), rng.randint(1, max_den))) for x in xs
    ]
    mu = DiscreteMeasure(pairs)
    if normalize:
        mu = mu.scaled(1 / mu.mass)
    return mu


def mean_preserving_spread(
    rng: random.Random, mu: DiscreteMeasure, stay_prob: float = 0.35
) -> DiscreteMeasure:
    """A successor of mu in convex order (every atom stays or splits in two)."""
    atoms: List[Tuple[Fraction, Fraction]] = []
    for x, w in mu:
        if rng.random() < stay_prob:
            atoms.append((x, w))
            continue
        down = F(rng.randint(1, 2), rng.choice([1, 2]))
        up = F(rng.randint(1, 2), rng.choice([1, 2]))
        lam = down / (down + up)
        atoms.append((x + up, w * lam))
        atoms.append((x - down, w * (1 - lam)))
    return DiscreteMeasure(atoms)


def random_marginal_chain(
    rng: random.Random,
    steps: int,
    max_support: int = 5,
    start_atoms: int = 2,
    attempts: int = 200,
) -> List[DiscreteMeasure]:
    """A convex-order chain with every support at most max_support."""
    for _ in range(attempts):
        chain = [random_measure(rng, max_atoms=start_atoms, span=3)]
        ok = True
        for _ in range(steps):
            nxt = mean_preserving_spread(rng, chain[-1])
            if len(nxt) > max_support:
                ok = False
                break
            chain.append(nxt)
        if ok:
            return chain
    raise RuntimeError("could not build a chain within the support bound")


def random_pc_pair(
    rng: random.Random, max_atoms: int = 5
) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """A pair mu <=_pc nu with a nontrivial shadow.

    nu is random; a sub-measure of nu is contracted to barycenters group by
    group, which preserves the positive convex order and loses pointwise
    domination.
    """
    nu = random_measure(rng, max_atoms=max_atoms)
    scale = F(rng.randint(1, 3), 4)
    sub = [(x, w * scale) for x, w in nu]
    rng.shuffle(sub)
    groups: List[List[Tuple[Fraction, Fraction]]] = []
    i = 0
    while i < len(sub):
        size = rng.randint(1, 2)
        groups.append(sub[i : i + size])
        i += size
    atoms = []
    for group in groups:
        gmass = sum((w for _, w in group), F(0))
        gfm = sum((w * x for x, w in group), F(0))
        atoms.append((gfm / gmass, gmass))
    return DiscreteMeasure(atoms), nu


# --- independent LP oracles --------------------------------------------------


def _coupling_rows(mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool, nu_cap: bool):
    xs, ys = mu.support, nu.support
    cols = [(x, y) for x in xs for y in ys]
    idx = {c: k for k, c in enumerate(cols)}
    rows, rhs, senses = [], [], []
    for x, w in mu:
        row = [F(0)] * len(cols)
        for y in ys:
            row[idx[(x, y)]] = F(1)
        rows.append(row)
        rhs.append(w)
        senses.append("=")
    for y, w in nu:
        row = [F(0)] * len(cols)
        for x in xs:
            row[idx[(x, y)]] = F(1)
        rows.append(row)
        rhs.append(w)
        senses.append("<=" if nu_cap else "=")
    if martingale:
        for x, _ in mu:
            row = [F(0)] * len(cols)
            for y in ys:
                row[idx[(x, y)]] = y - x
            rows.append(row)
            rhs.append(F(0))
            senses.append("=")
    return cols, rows, rhs, senses


def lp_martingale_coupling_exists(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Feasibility of the martingale transport polytope between mu and nu."""
    if mu.is_zero and nu.is_zero:
        return True
    if mu.is_zero != nu.is_zero:
        return False
    cols, rows, rhs, senses = _coupling_rows(mu, nu, martingale=True, nu_cap=False)
    try:
        solve_lp([F(0)] * len(cols), rows, rhs, senses)
        return True
    except Infeasible:
        return False


def lp_cast_set_exists(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Feasibility of {theta : mu <=_c theta <= nu} via a coupling LP."""
    if mu.is_zero:
        return True
    cols, rows, rhs, senses = _coupling_rows(mu, nu, martingale=True, nu_cap=True)
    try:
        solve_lp([F(0)] * len(cols), rows, rhs, senses)
        return True
    except Infeasible:
        return False


def lp_min_second_moment_atom(
    q: Fraction, x: Fraction, nu: DiscreteMeasure
) -> Optional[DiscreteMeasure]:
    """Minimizer of the second moment over {theta <= nu, mass q, barycenter x}."""
    ys = nu.support
    rows = [[F(1)] * len(ys), [F(y) for y in ys]]
    rhs = [q, q * x]
    senses = ["=", "="]
    for k, (y, w) in enumerate(nu):
        row = [F(0)] * len(ys)
        row[k] = F(1)
        rows.append(row)
        rhs.append(w)
        senses.append("<=")
    try:
        result = solve_lp([y * y for y in ys], rows, rhs, senses, maximize=False)
    except Infeasible:
        return None
    return DiscreteMeasure((ys[k], v) for k, v in enumerate(result.x) if v != 0)


def lp_cast_min_call(mu: DiscreteMeasure, nu: DiscreteMeasure, b: Fraction) -> Fraction:
    """Minimum call value over {theta : mu <=_c theta <= nu}."""
    cols, rows, rhs, senses = _coupling_rows(mu, nu, martingale=True, nu_cap=True)
    objective = [max(y - b, F(0)) for _, y in cols]
    return solve_lp(objective, rows, rhs, senses, maximize=False).value


# --- slow reference implementations ------------------------------------------
#
# The per-point order tests and the atom-by-atom interval search that the
# put-potential sweep replaced.  They call no library order test or shadow.


def oracle_positive_convex_order_leq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """mu <=_pc nu from call and put integrals summed afresh at every grid point."""

    def call(m, b):
        return sum((w * (x - b) for x, w in m if x > b), F(0))

    def put(m, b):
        return sum((w * (b - x) for x, w in m if x < b), F(0))

    if mu.mass > nu.mass:
        return False
    grid = sorted(set(mu.support) | set(nu.support))
    return all(call(mu, b) <= call(nu, b) and put(mu, b) <= put(nu, b) for b in grid)


def oracle_convex_order_leq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """mu <=_c nu from equal mass and mean and integrals of |x - y| at the grid."""

    def u(m, x):
        return sum((w * abs(x - y) for y, w in m), F(0))

    if mu.mass != nu.mass or mu.first_moment != nu.first_moment:
        return False
    return all(u(mu, x) <= u(nu, x) for x in sorted(set(mu.support) | set(nu.support)))


def oracle_shadow_atom(q, x, nu: DiscreteMeasure) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """(shadow, residual) of q*delta_x in nu by search over interval restrictions.

    Interior atoms are taken whole and the two endpoint fractions solve the
    2x2 mass/barycenter system; the least element is the feasible candidate
    of minimal second moment.  Raises NotInPositiveConvexOrder as
    `shadow_atom` does.
    """
    q, x = F(q), F(x)
    if q < 0:
        raise NotInPositiveConvexOrder(f"atom mass {q} is negative")
    if q == 0:
        return DiscreteMeasure.zero(), nu
    if not oracle_positive_convex_order_leq(DiscreteMeasure.dirac(x, q), nu):
        raise NotInPositiveConvexOrder(f"{q}*d[{x}] is not <=_pc the target")
    atoms = nu.atoms
    positions = [a for a, _ in atoms]
    zero = F(0)
    pre_mass, pre_fm, pre_m2 = [zero], [zero], [zero]
    for p, w in atoms:
        pre_mass.append(pre_mass[-1] + w)
        pre_fm.append(pre_fm[-1] + w * p)
        pre_m2.append(pre_m2[-1] + w * p * p)
    best = None
    for i in (i for i, p in enumerate(positions) if p <= x):
        for j in (j for j, p in enumerate(positions) if p >= x):
            if positions[i] > positions[j]:
                continue
            yi, yj = positions[i], positions[j]
            inner_mass = pre_mass[j] - pre_mass[i + 1] if j > i else zero
            need_mass = q - inner_mass
            if need_mass < 0:
                break  # interiors only grow with j
            inner_fm = pre_fm[j] - pre_fm[i + 1] if j > i else zero
            inner_m2 = pre_m2[j] - pre_m2[i + 1] if j > i else zero
            need_fm = q * x - inner_fm
            if yi == yj:
                if need_fm != need_mass * yi or need_mass > atoms[i][1]:
                    continue
                frac_i, frac_j = need_mass, zero
            else:
                frac_j = (need_fm - yi * need_mass) / (yj - yi)
                frac_i = need_mass - frac_j
                if not (0 <= frac_i <= atoms[i][1] and 0 <= frac_j <= atoms[j][1]):
                    continue
            moment = inner_m2 + frac_i * yi * yi + frac_j * yj * yj
            if best is None or moment < best[0]:
                best = (moment, i, j, frac_i, frac_j)
    if best is None:
        raise NotInPositiveConvexOrder(f"no interval of the target can host {q}*d[{x}]")
    _, i, j, frac_i, frac_j = best
    rows = [(positions[i], frac_i)] + list(atoms[i + 1 : j])
    if j > i:
        rows.append((positions[j], frac_j))
    result = DiscreteMeasure(rows)
    return result, subtract(nu, result)


def oracle_shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """(shadow, residual) of mu in nu, folding atom shadows left to right."""
    if not oracle_positive_convex_order_leq(mu, nu):
        raise NotInPositiveConvexOrder("source measure is not <=_pc the target")
    total, residual = DiscreteMeasure.zero(), nu
    for x, w in mu:
        piece, residual = oracle_shadow_atom(w, x, residual)
        total = add(total, piece)
    return total, residual


# --- dense simplex oracle ------------------------------------------------------
#
# The dense fraction-free tableau that the revised engine in `simplex`
# replaced: every pivot rewrites every entry of every row.  The revised
# engine must pivot exactly like it, so results are compared with `==`; the
# oracle counts its phase-1 pivots and peak delta bit length too, so whole
# `LpResult`s compare.

_MAX_PIVOTS = 200_000


def _scale_to_int(row: Sequence[Fraction]) -> Tuple[List[int], int]:
    denom = math.lcm(*(f.denominator for f in row)) if row else 1
    return [int(f * denom) for f in row], denom


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError("fraction-free pivot produced a non-integer entry")
    return q


class _Tableau:
    def __init__(self, rows: List[List[int]], basis: List[int]):
        self.rows = rows          # constraint rows, then phase-2 z-row, then phase-1 z-row
        self.basis = basis        # basic column per constraint row
        self.delta = 1
        self.iterations = 0
        self.max_delta_bits = 1

    @property
    def m(self) -> int:
        return len(self.basis)

    def pivot(self, r: int, c: int) -> None:
        rows, delta = self.rows, self.delta
        prow = rows[r]
        p = prow[c]
        if p == 0:
            raise AssertionError("zero pivot")
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f == 0:
                if p != delta:
                    rows[i] = [_exact_div(v * p, delta) for v in row]
            else:
                rows[i] = [
                    _exact_div(v * p - f * pv, delta) for v, pv in zip(row, prow)
                ]
        self.delta = p
        if self.delta < 0:
            self.delta = -self.delta
            self.rows = [[-v for v in row] for row in self.rows]
        self.basis[r] = c
        self.max_delta_bits = max(self.max_delta_bits, self.delta.bit_length())
        self.iterations += 1
        if self.iterations > _MAX_PIVOTS:
            raise AssertionError("pivot limit exceeded")

    def run(self, zrow_index: int, allowed: Sequence[bool]) -> None:
        """Bland-rule simplex loop on the given objective row."""
        rhs = len(self.rows[0]) - 1
        while True:
            zrow = self.rows[zrow_index]
            entering = -1
            for j in range(rhs):
                if allowed[j] and zrow[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leave = -1
            best_num = best_den = 0
            for i in range(self.m):
                a = self.rows[i][entering]
                if a > 0:
                    b = self.rows[i][rhs]
                    if (
                        leave < 0
                        or b * best_den < best_num * a
                        or (b * best_den == best_num * a and self.basis[i] < self.basis[leave])
                    ):
                        leave, best_num, best_den = i, b, a
            if leave < 0:
                raise Unbounded("no blocking row for entering column")
            self.pivot(leave, entering)


def oracle_solve_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    senses: Optional[Sequence[str]] = None,
    maximize: bool = True,
) -> LpResult:
    """Solve {max (or min) objective . x : rows x (senses) rhs, x >= 0} exactly.

    senses entries are '=', '<=', '>=' (default all '=').  Raises Infeasible
    or Unbounded.  Deterministic: identical inputs give identical pivots and
    an identical optimal vertex.
    """
    n = len(objective)
    m = len(rows)
    if senses is None:
        senses = ["="] * m
    obj = [Fraction(v) if not isinstance(v, Fraction) else v for v in objective]
    if not maximize:
        obj = [-v for v in obj]

    # Scale every row (and the objective) to integers; remember the per-row
    # multiplier including the sign flip used to make the right side >= 0.
    int_rows: List[List[int]] = []
    row_mult: List[Fraction] = []
    eff_senses: List[str] = []
    for i in range(m):
        frac_row = [Fraction(v) for v in rows[i]] + [Fraction(rhs[i])]
        ints, denom = _scale_to_int(frac_row)
        mult = Fraction(denom)
        sense = senses[i]
        if ints[-1] < 0:
            ints = [-v for v in ints]
            mult = -mult
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        int_rows.append(ints)
        row_mult.append(mult)
        eff_senses.append(sense)
    obj_ints, obj_denom = _scale_to_int(obj)

    # Column layout: structural | slack/surplus | artificial | rhs.
    aux_cols: List[Tuple[int, int]] = []  # (row, +1 slack / -1 surplus)
    art_rows: List[int] = []              # rows that get an artificial
    for i, sense in enumerate(eff_senses):
        if sense == "<=":
            aux_cols.append((i, 1))
        elif sense == ">=":
            aux_cols.append((i, -1))
            art_rows.append(i)
        else:
            art_rows.append(i)
    n_aux = len(aux_cols)
    n_art = len(art_rows)
    width = n + n_aux + n_art + 1
    rhs_col = width - 1

    aux_col_of_row = {}
    art_col_of_row = {}
    tab_rows: List[List[int]] = []
    basis: List[int] = [-1] * m
    for i in range(m):
        row = [0] * width
        row[:n] = int_rows[i][:n]
        row[rhs_col] = int_rows[i][n]
        tab_rows.append(row)
    for k, (i, sign) in enumerate(aux_cols):
        col = n + k
        tab_rows[i][col] = sign
        aux_col_of_row[i] = col
        if sign == 1:
            basis[i] = col
    for k, i in enumerate(art_rows):
        col = n + n_aux + k
        tab_rows[i][col] = 1
        art_col_of_row[i] = col
        basis[i] = col

    # Phase-2 objective row (z - c), already priced out: initial basic
    # columns are slacks/artificials with zero cost.
    z2 = [0] * width
    z2[:n] = [-v for v in obj_ints]
    # Phase-1 objective row for max(-sum of artificials), priced out.
    z1 = [0] * width
    for i in art_rows:
        z1[art_col_of_row[i]] = 1
    for i in art_rows:
        z1 = [a - b for a, b in zip(z1, tab_rows[i])]

    tab = _Tableau(tab_rows + [z2, z1], basis)
    z2_index, z1_index = m, m + 1

    is_artificial = [False] * width
    for i in art_rows:
        is_artificial[art_col_of_row[i]] = True

    if n_art:
        allowed = [not is_artificial[j] for j in range(width)]
        tab.run(z1_index, allowed)
        if tab.rows[z1_index][rhs_col] != 0:
            raise Infeasible("phase 1 terminated with positive artificial mass")
        # Drive remaining zero-level artificials out of the basis.
        for i in range(m):
            if is_artificial[tab.basis[i]]:
                row = tab.rows[i]
                pivot_col = next(
                    (j for j in range(n + n_aux) if row[j] != 0),
                    None,
                )
                if pivot_col is not None:
                    tab.pivot(i, pivot_col)
    phase1_iterations = tab.iterations

    # Redundant rows: basic artificial with no pivotable entry left.
    keep = [i for i in range(m) if not is_artificial[tab.basis[i]]]
    redundant = set(range(m)) - set(keep)
    tab.rows = [tab.rows[i] for i in keep] + [tab.rows[z2_index], tab.rows[z1_index]]
    tab.basis = [tab.basis[i] for i in keep]
    z2_index = len(keep)

    allowed = [not is_artificial[j] for j in range(width)]
    tab.run(z2_index, allowed)

    delta = tab.delta
    zrow = tab.rows[z2_index]
    x = [Fraction(0)] * n
    for i, col in enumerate(tab.basis):
        value = Fraction(tab.rows[i][rhs_col], delta)
        if tab.rows[i][col] != delta:
            raise AssertionError("basic column is not the scaled identity")
        if col < n:
            x[col] = value
    raw_value = Fraction(zrow[rhs_col], delta) / obj_denom

    duals = [Fraction(0)] * m
    for i in range(m):
        if i in redundant:
            continue
        col = art_col_of_row.get(i, aux_col_of_row.get(i))
        y_scaled = Fraction(zrow[col], delta)
        duals[i] = y_scaled * row_mult[i] / obj_denom

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


# --- misc helpers -------------------------------------------------------------


def mirror_measure(mu: DiscreteMeasure) -> DiscreteMeasure:
    return DiscreteMeasure((-x, w) for x, w in mu)


def mirror_coupling(P: PathMeasure) -> PathMeasure:
    return PathMeasure(P.n, ((tuple(-c for c in p), w) for p, w in P.paths))


def total_variation(P: PathMeasure, Q: PathMeasure) -> Fraction:
    keys = set(P.support) | set(Q.support)
    return sum((abs(P.weight_at(p) - Q.weight_at(p)) for p in keys), F(0)) / 2
