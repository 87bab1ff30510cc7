"""Shared instance generators, independent LP oracles and slow references.

The generators build random marginal chains by mean-preserving spreads, so
convex order holds by construction; `irreducible_chain` draws chains whose
every step is one irreducible component, so every LP path is in the domain.
The LP oracles solve small LPs directly on the raw simplex engine, and the
slow references are the direct per-point and per-atom algorithms; neither
shares code with the combinatorial implementations they are used to check.  `oracle_put_gap` is the
Fraction put sweep that the integer sweep of `measure` replaced, and the
`oracle_sweep_*` functions are the order tests, potentials, put and call
values and step decomposition as they were computed from it.
`oracle_decomposed` is the run loop over the integer sweep's segments,
with `restrict` to each component, that the reading of components between
consecutive zeros replaced (`oracle_decompose_step` runs it after the
order check), and `oracle_diagonal_intervals` the case analysis that
pairing up the components' ends replaced.  `oracle_component_of_point` is
the scan over every component that the bisection of
`StepDecomposition.component_of_point` replaced.
`oracle_free_chargeable` is the free problem's membership test by the
paper's three n-step families, which the effective domain of the
(mu_0, mu_n) decomposition taken at every step replaced, and
`oracle_free_paths` the product-then-filter enumeration built on it.
`oracle_hull_shadow` is the put-gap hull that the quantile-window fold of
`shadow` replaced, and the constructions built on it
(`oracle_left_monotone`, `oracle_prefix_records`, `oracle_verify`,
`oracle_strong_order`) recompute the couplings and verdicts with it.
`OracleResidual` and `oracle_take` are that fold's residual in Fraction
arithmetic, which the integer `_Residual` replaced.  `oracle_increments`
is the construction's per-atom increments and takes built from it as
measures and Fraction pieces, which the integer increments of
`coupling._increments` replaced.
`oracle_running_strong_order` is the strong-order check from running
prefix shadows that the per-atom check of `strong_order_holds` replaced.
`oracle_solve_lp` is the dense simplex tableau that the revised engine
replaced, and the `oracle_*` row builders are the dense LP builders that
the sparse ones replaced.  `sparse` and `dense` convert between the two row
formats.  `oracle_superhedge` is the per-path superhedge formula that
`DualCertificate.hedges` replaced, and `oracle_extract_dual` the dual
extraction and checks built on it.  `oracle_is_martingale` is the
martingale check from per-history drift sums that the grouped walk of
`coupling._histories` replaced.  `oracle_kernels` is the dict of each
history's law that `PathMeasure.kernels` built, which the competitor LP
and the LP policy read before they walked the groups of `_histories`
themselves, and `oracle_markov_check` the dict of normalized kernels keyed
by state that the sorted (state, law) pairs of `markov_check` replaced.
`oracle_scan_left_monotone_set` and
`oracle_scan_nondegenerate_set` are the support scans over frozenset
projections, read in hash order, that the sorted `SupportSet.branches`
replaced; they fix the verdicts.  `oracle_branches` is `branches` from a
frozenset of prefixes, sorted, that the grouping of consecutive points
replaced.  `oracle_first_crossing` and
`oracle_first_degeneracy` fix the witnesses by the definitions: at the
first failing date every crossing triple or one-sided history, the first
in history order.  `oracle_potential_value`,
`oracle_right_derivative`, `oracle_left_derivative`, `oracle_weight_at` and
`oracle_path_weight_at` are the binary search and the linear scans that the
`bisect` lookups of `PotentialFunction`, `DiscreteMeasure.weight_at` and
`PathMeasure.weight_at` replaced.  `oracle_atoms` and `oracle_paths` are
the dict merges of the `DiscreteMeasure` and `PathMeasure` constructors
that their one sorted pass replaced, and `oracle_subtract` the dict
merge that the sorted walk of `subtract` replaced; `oracle_path_measure` builds a
PathMeasure from `oracle_paths` without calling the constructor, and
`spelled` draws equal values as distinct inputs for both merges.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import strategies as st

from leftcurtain import (
    CrossingWitness,
    DegeneracyWitness,
    DiscreteMeasure,
    DualCertificate,
    Interval,
    IrreducibleDomain,
    MathError,
    NegativeWeight,
    NotInConvexOrder,
    NotInPositiveConvexOrder,
    PathMeasure,
    PotentialFunction,
    StepDecomposition,
    SupportSet,
    add,
    convex_order_leq,
    decompose_step,
    effective_domain_contains,
    rat,
    subtract,
)
from leftcurtain import simplex
from leftcurtain.coupling import PrefixImageRecord
from leftcurtain.measure import _convex_failure
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


def grid_chain(rng: random.Random, k: int) -> List[DiscreteMeasure]:
    """k equal-weight atoms on [0, 1) followed by two mean-preserving spreads."""
    chain = [DiscreteMeasure((F(j, k), F(1, k)) for j in range(k))]
    for _ in range(2):
        chain.append(mean_preserving_spread(rng, chain[-1], stay_prob=0.5))
    return chain


def irreducible_chain(rng: random.Random, sizes: Sequence[int]) -> List[DiscreteMeasure]:
    """Marginals with the given support sizes and integer weights from 1 to 4,
    normalized, each step one irreducible component holding every atom, so
    the effective domain is the full product."""
    chain = []
    for t, size in enumerate(sizes):
        while True:
            xs = rng.sample(range(-3 * t - 2, 3 * t + 3), size)
            ws = [rng.randint(1, 4) for _ in xs]
            mu = DiscreteMeasure((F(x), F(w, sum(ws))) for x, w in zip(xs, ws))
            if not chain:
                break
            shift = chain[0].barycenter - mu.barycenter
            mu = DiscreteMeasure((x + shift, w) for x, w in mu)
            try:
                step = decompose_step(chain[-1], mu)
            except NotInConvexOrder:
                continue
            if step.diagonal.is_zero and len(step.components) == 1 and step.components[0].nu_k == mu:
                break
        chain.append(mu)
    return chain


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


def random_pair(rng: random.Random, kind: str) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """A pair (mu, nu) in (pc, spread) or, mostly, out of (random, reversed,
    shrunk, grown, shifted) the positive convex order.  A spread is in
    convex order; reversed it fails the put order (unless no atom moved),
    shrunk or grown the mass, and shifted the barycenter."""
    if kind == "pc":
        return random_pc_pair(rng, max_atoms=6)
    if kind == "random":
        return random_measure(rng, max_atoms=5), random_measure(rng, max_atoms=5)
    mu = random_measure(rng, max_atoms=4)
    nu = mean_preserving_spread(rng, mu)
    if kind == "reversed":
        return nu, mu
    if kind == "shrunk":
        return mu.scaled(F(rng.randint(1, 4), 4)), nu
    if kind == "grown":
        return mu.scaled(F(rng.randint(5, 8), 4)), nu
    if kind == "shifted":
        return mu, DiscreteMeasure((x + F(rng.randint(1, 4), 3), w) for x, w in nu)
    return mu, nu


# --- row formats -------------------------------------------------------------


def sparse(rows):
    """Dense rows as the (column, coefficient) pairs that `simplex` reads,
    zeros left out.  A tuple, outer or row, stays a tuple, so tuple input
    is remembered by `simplex.phase1` as before."""

    def like(seq, items):
        return tuple(items) if isinstance(seq, tuple) else list(items)

    return like(rows, (like(row, ((j, a) for j, a in enumerate(row) if a)) for row in rows))


def dense(rows, n: int) -> List[List[Fraction]]:
    """Sparse rows written out over n columns."""
    out = [[F(0)] * n for _ in rows]
    for row, pairs in zip(out, rows):
        for j, a in pairs:
            row[j] = a
    return out


# --- dense LP builders ----------------------------------------------------------
#
# The builders that wrote dense Fraction rows before `lpsolver` and
# `geometry` emitted sparse ones, kept as they were.  The sparse rows,
# written out by `dense`, must equal theirs.


def oracle_lp_rows(program) -> Tuple[List[List[Fraction]], List[Fraction]]:
    """`MotProgram.lp_rows` over dense rows."""
    index: Dict[tuple, int] = {key: i for i, key in enumerate(program.row_keys)}
    width = len(program.paths)
    rows = [[Fraction(0)] * width for _ in program.row_keys]
    rhs = [Fraction(0)] * len(program.row_keys)
    for t, mu in program.marginals.items():
        for point, w in mu.atoms:
            rhs[index[("marginal", t, point)]] = w
    for j, path in enumerate(program.paths):
        for t in program.marginals:
            rows[index[("marginal", t, path[t])]][j] = Fraction(1)
        for t in range(1, program.n + 1):
            rows[index[("martingale", t, path[:t])]][j] = path[t] - path[t - 1]
    return rows, rhs


def oracle_chain_min_skeleton(
    mu0_part: DiscreteMeasure, chain: Tuple[DiscreteMeasure, ...]
) -> tuple:
    """The columns (step s, x, y), dense rows, rhs and senses of
    `chain_min_call`'s LP."""
    t = len(chain)
    grids: List[Tuple[Fraction, ...]] = [mu0_part.support]
    grids += [chain[s].support for s in range(t)]

    cols: List[Tuple[int, Fraction, Fraction]] = []  # (step s, x, y)
    for s in range(1, t + 1):
        for x in grids[s - 1]:
            for y in grids[s]:
                cols.append((s, x, y))
    col_index = {c: k for k, c in enumerate(cols)}
    width = len(cols)

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    senses: List[str] = []

    def blank() -> List[Fraction]:
        return [Fraction(0)] * width

    for x, w in mu0_part.atoms:
        row = blank()
        for y in grids[1]:
            row[col_index[(1, x, y)]] = Fraction(1)
        rows.append(row)
        rhs.append(w)
        senses.append("=")
    for s in range(1, t):
        for y in grids[s]:
            row = blank()
            for z in grids[s + 1]:
                row[col_index[(s + 1, y, z)]] = Fraction(1)
            for x in grids[s - 1]:
                row[col_index[(s, x, y)]] -= Fraction(1)
            rows.append(row)
            rhs.append(Fraction(0))
            senses.append("=")
    for s in range(1, t + 1):
        for x in grids[s - 1]:
            row = blank()
            for y in grids[s]:
                row[col_index[(s, x, y)]] = y - x
            rows.append(row)
            rhs.append(Fraction(0))
            senses.append("=")
        for y, w in chain[s - 1].atoms:
            row = blank()
            for x in grids[s - 1]:
                row[col_index[(s, x, y)]] = Fraction(1)
            rows.append(row)
            rhs.append(w)
            senses.append("<=")
    return tuple(cols), tuple(map(tuple, rows)), tuple(rhs), tuple(senses)


def oracle_competitor_lp(pi: PathMeasure, reward, effective_domain, marginal=None):
    """The objective, dense rows and rhs of `find_improving_competitor`'s LP,
    or None when it has no column."""
    t = pi.n
    histories: Dict[tuple, Fraction] = {}
    bary_sum: Dict[tuple, Fraction] = {}
    last: Dict[Fraction, Fraction] = {}
    for p, w in pi.paths:
        h = p[:t]
        histories[h] = histories.get(h, Fraction(0)) + w
        bary_sum[h] = bary_sum.get(h, Fraction(0)) + w * p[t]
        last[p[t]] = last.get(p[t], Fraction(0)) + w

    grid = set(last)
    if marginal is not None:
        grid.update(marginal.support)
    grid = sorted(grid)
    history_list = sorted(histories)

    cols: List[Tuple[tuple, Fraction]] = []
    for h in history_list:
        for y in grid:
            if effective_domain_contains(effective_domain, h + (y,)) is not None:
                cols.append((h, y))
    if not cols:
        return None
    col_index = {c: k for k, c in enumerate(cols)}

    rows, rhs = [], []
    for h in history_list:
        row = [Fraction(0)] * len(cols)
        for y in grid:
            k = col_index.get((h, y))
            if k is not None:
                row[k] = Fraction(1)
        rows.append(row)
        rhs.append(histories[h])
        row = [Fraction(0)] * len(cols)
        for y in grid:
            k = col_index.get((h, y))
            if k is not None:
                row[k] = y
        rows.append(row)
        rhs.append(bary_sum[h])
    for y in grid:
        row = [Fraction(0)] * len(cols)
        for h in history_list:
            k = col_index.get((h, y))
            if k is not None:
                row[k] = Fraction(1)
        rows.append(row)
        rhs.append(last.get(y, Fraction(0)))

    objective = [Fraction(reward(h + (y,))) for h, y in cols]
    return objective, rows, rhs


# --- dual certificates path by path -------------------------------------------
#
# The superhedge as it was evaluated before `DualCertificate.hedges` summed
# it over the program's rows: date by date, from the certificate's dicts.


def oracle_superhedge(certificate: DualCertificate, path: tuple) -> Fraction:
    """sum_t phi_t(x_t) + sum_t H_t(x_0..x_{t-1}) (x_t - x_{t-1}) on one path."""
    total = Fraction(0)
    for t, x in enumerate(path):
        total += certificate.phi.get(t, {}).get(x, Fraction(0))
    for t in range(1, len(path)):
        total += certificate.H.get((t, path[:t]), Fraction(0)) * (path[t] - path[t - 1])
    return total


def oracle_extract_dual(program, solution) -> DualCertificate:
    """`extract_dual` path by path: the objective from `weight_at`, the
    superhedging and complementary slackness checks through
    `oracle_superhedge`, with the same messages."""
    phi: Dict[int, Dict[Fraction, Fraction]] = {t: {} for t in program.marginals}
    H: Dict[tuple, Fraction] = {}
    for key, y in zip(program.row_keys, solution.lp.duals):
        if key[0] == "marginal":
            phi[key[1]][key[2]] = y
        elif y != 0:
            H[key[1:]] = y
    objective = sum(
        (program.marginals[t].weight_at(x) * v for t, values in phi.items() for x, v in values.items()),
        Fraction(0),
    )
    certificate = DualCertificate(phi, H, objective, program)
    if objective != solution.exact_value:
        raise AssertionError("dual objective does not match the primal value")
    for path, f_val, w in zip(program.paths, program.reward_values, solution.lp.x):
        hedge = oracle_superhedge(certificate, path)
        if hedge < f_val:
            raise AssertionError(f"superhedging fails on {path}")
        if w > 0 and hedge != f_val:
            raise AssertionError(f"complementary slackness fails on {path}")
    return certificate


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
        solve_lp([F(0)] * len(cols), sparse(rows), rhs, senses)
        return True
    except Infeasible:
        return False


def lp_cast_set_exists(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Feasibility of {theta : mu <=_c theta <= nu} via a coupling LP."""
    if mu.is_zero:
        return True
    cols, rows, rhs, senses = _coupling_rows(mu, nu, martingale=True, nu_cap=True)
    try:
        solve_lp([F(0)] * len(cols), sparse(rows), rhs, senses)
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
        result = solve_lp([y * y for y in ys], sparse(rows), rhs, senses, maximize=False)
    except Infeasible:
        return None
    return DiscreteMeasure((ys[k], v) for k, v in enumerate(result.x) if v != 0)


def lp_cast_min_call(mu: DiscreteMeasure, nu: DiscreteMeasure, b: Fraction) -> Fraction:
    """Minimum call value over {theta : mu <=_c theta <= nu}."""
    cols, rows, rhs, senses = _coupling_rows(mu, nu, martingale=True, nu_cap=True)
    objective = [max(y - b, F(0)) for _, y in cols]
    return solve_lp(objective, sparse(rows), rhs, senses, maximize=False).value


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


# --- the Fraction put sweep ----------------------------------------------------
#
# The put sweep in Fraction arithmetic that the common-denominator integer
# sweep of `measure._put_sweep` replaced, and everything that read it.


def oracle_put_values(atoms: Sequence[Tuple[Fraction, Fraction]], grid) -> List[Fraction]:
    """P(k) = sum_i w_i * max(k - y_i, 0) on a sorted grid, for signed atoms
    sorted by position: one merged pass, P(k) = k * mass_below(k) - moment_below(k)."""
    values: List[Fraction] = []
    i, mass_below, moment_below = 0, F(0), F(0)
    for k in grid:
        while i < len(atoms) and atoms[i][0] < k:
            x, w = atoms[i]
            mass_below += w
            moment_below += w * x
            i += 1
        values.append(k * mass_below - moment_below)
    return values


def oracle_put_gap(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Tuple[List[Fraction], List[Fraction]]:
    """The merged support grid of mu and nu, and P_nu - P_mu on it."""
    signed = sorted(nu.atoms + tuple((x, -w) for x, w in mu.atoms), key=lambda a: a[0])
    grid: List[Fraction] = []
    for x, _ in signed:
        if not grid or grid[-1] != x:
            grid.append(x)
    return grid, oracle_put_values(signed, grid)


def oracle_sweep_convex_order_leq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    if mu.mass != nu.mass or mu.first_moment != nu.first_moment:
        return False
    return all(g >= 0 for g in oracle_put_gap(mu, nu)[1])


def oracle_sweep_positive_convex_order_leq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    excess = nu.mass - mu.mass
    if excess < 0:
        return False
    drift = nu.first_moment - mu.first_moment
    grid, gap = oracle_put_gap(mu, nu)
    return all(g >= 0 and g >= excess * b - drift for b, g in zip(grid, gap))


def oracle_sweep_put_value(mu: DiscreteMeasure, b: Fraction) -> Fraction:
    return oracle_put_values(mu.atoms, [b])[0]


def oracle_sweep_call_value(mu: DiscreteMeasure, b: Fraction) -> Fraction:
    return oracle_sweep_put_value(mu, b) - mu.mass * b + mu.first_moment


def oracle_sweep_potential(mu: DiscreteMeasure) -> PotentialFunction:
    total_mass, total_fm = mu.mass, mu.first_moment
    puts = oracle_put_values(mu.atoms, mu.support)
    breakpoints = tuple((x, 2 * p - total_mass * x + total_fm) for x, p in zip(mu.support, puts))
    return PotentialFunction(breakpoints, -total_mass, total_mass)


def oracle_convex_failure(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Optional[str]:
    """The first condition of mu <=_c nu that fails, in the words of every
    convex-order error, from the Fraction masses, moments and put gap: the
    masses, the barycenters, then the first grid point where the gap is
    negative.  None when the order holds."""
    if mu.mass != nu.mass:
        return f"masses {mu.mass} vs {nu.mass}"
    if mu.first_moment != nu.first_moment:
        return f"barycenters {mu.barycenter} vs {nu.barycenter}"
    grid, gap = oracle_put_gap(mu, nu)
    below = [k for k, g in zip(grid, gap) if g < 0]
    return f"P_nu(k) < P_mu(k) first at k = {below[0]}" if below else None


def oracle_sweep_decompose_step(mu: DiscreteMeasure, nu: DiscreteMeasure) -> StepDecomposition:
    """`decompose_step` from the Fraction gap: components are the maximal open
    intervals where the gap is positive, split at its interior zeros."""
    failure = oracle_convex_failure(mu, nu)
    if failure:
        raise NotInConvexOrder(f"not in convex order: {failure}")
    grid, values = oracle_put_gap(mu, nu)
    open_intervals: List[Tuple[Fraction, Fraction]] = []
    run_start: Optional[int] = None
    for i in range(len(grid) - 1):
        if values[i] > 0 or values[i + 1] > 0:
            if run_start is None:
                run_start = i
            if values[i + 1] == 0 or i + 1 == len(grid) - 1:
                open_intervals.append((grid[run_start], grid[i + 1]))
                run_start = None
    components = []
    for k, (lo, hi) in enumerate(open_intervals, start=1):
        interior = Interval.open(lo, hi)
        mu_k, nu_inside = mu.restrict(interior), nu.restrict(interior)
        need_mass = mu_k.mass - nu_inside.mass
        frac_hi = (mu_k.first_moment - nu_inside.first_moment - lo * need_mass) / (hi - lo)
        frac_lo = need_mass - frac_hi
        nu_k = add(nu_inside, DiscreteMeasure([(lo, frac_lo), (hi, frac_hi)]))
        if not (frac_lo > 0 and frac_hi > 0):
            raise AssertionError("J is not the closure of I")
        components.append(IrreducibleDomain(k, interior, mu_k, nu_k))
    diagonal = subtract(mu, DiscreteMeasure([a for c in components for a in c.mu_k]))
    return StepDecomposition(diagonal, tuple(components))


def oracle_decomposed(mu: DiscreteMeasure, nu: DiscreteMeasure, sweep) -> StepDecomposition:
    """`decomposition._decomposed` from the integer sweep by a run loop over
    its segments, restricting mu and nu to each component's open interval.
    Its last run closes at the grid's end, so a sweep positive there is
    read as a component, not an error."""
    grid, values, _, _, d, _ = sweep
    open_intervals: List[Tuple[Fraction, Fraction]] = []
    run_start: Optional[int] = None
    for i in range(len(grid) - 1):
        if values[i] > 0 or values[i + 1] > 0:
            if run_start is None:
                run_start = i
            if values[i + 1] == 0 or i + 1 == len(grid) - 1:
                open_intervals.append((Fraction(grid[run_start], d), Fraction(grid[i + 1], d)))
                run_start = None
    components = []
    for k, (lo, hi) in enumerate(open_intervals, start=1):
        interior = Interval.open(lo, hi)
        mu_k = mu.restrict(interior)
        nu_inside = nu.restrict(interior)
        need_mass = mu_k.mass - nu_inside.mass
        need_fm = mu_k.first_moment - nu_inside.first_moment
        frac_hi = (need_fm - lo * need_mass) / (hi - lo)
        frac_lo = need_mass - frac_hi
        if frac_lo < 0 or frac_lo > nu.weight_at(lo) or frac_hi < 0 or frac_hi > nu.weight_at(hi):
            raise AssertionError("component endpoint assignment out of bounds")
        nu_k = DiscreteMeasure([*nu_inside.atoms, (lo, frac_lo), (hi, frac_hi)])
        if not (frac_lo > 0 and frac_hi > 0):
            raise AssertionError("J is not the closure of I")
        components.append(IrreducibleDomain(k, interior, mu_k, nu_k))
    diagonal = subtract(mu, DiscreteMeasure([a for c in components for a in c.mu_k]))
    if diagonal != subtract(nu, DiscreteMeasure([a for c in components for a in c.nu_k])):
        raise AssertionError("diagonal parts of mu and nu disagree")
    return StepDecomposition(diagonal, tuple(components))


def oracle_decompose_step(mu: DiscreteMeasure, nu: DiscreteMeasure) -> StepDecomposition:
    failure, sweep = _convex_failure(mu, nu)
    if failure:
        raise NotInConvexOrder(f"not in convex order: {failure}")
    return oracle_decomposed(mu, nu, sweep)


def oracle_diagonal_intervals(decomposition: StepDecomposition) -> Tuple[Interval, ...]:
    """`StepDecomposition.diagonal_intervals` by cases: the real line without
    components, else the closed gaps between them, a point where two meet."""
    if not decomposition.components:
        return (Interval.real_line(),)
    first, last = decomposition.components[0], decomposition.components[-1]
    pieces = [Interval(None, first.I.lo, False, True)]
    for left, right in zip(decomposition.components, decomposition.components[1:]):
        if left.I.hi == right.I.lo:
            pieces.append(Interval.point(left.I.hi))
        else:
            pieces.append(Interval(left.I.hi, right.I.lo, True, True))
    pieces.append(Interval(last.I.hi, None, True, False))
    return tuple(pieces)


def oracle_component_of_point(decomposition: StepDecomposition, x) -> Optional[IrreducibleDomain]:
    """`StepDecomposition.component_of_point` by testing every component's I in turn."""
    for comp in decomposition.components:
        if comp.I.contains(x):
            return comp
    return None


# --- scans of the sorted tables --------------------------------------------------
#
# Potential values, one-sided derivatives and atom and path weights as they
# were read before `measure` and `coupling` looked them up with `bisect`.


def oracle_potential_value(u: PotentialFunction, x) -> Fraction:
    x = rat(x)
    pts = u.breakpoints
    if not pts:
        return Fraction(0)
    if x <= pts[0][0]:
        return pts[0][1] + u.left_slope * (x - pts[0][0])
    if x >= pts[-1][0]:
        return pts[-1][1] + u.right_slope * (x - pts[-1][0])
    lo, hi = 0, len(pts) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pts[mid][0] <= x:
            lo = mid
        else:
            hi = mid
    (x0, v0), (x1, v1) = pts[lo], pts[hi]
    return v0 + (v1 - v0) * (x - x0) / (x1 - x0)


def oracle_right_derivative(u: PotentialFunction, x) -> Fraction:
    x = rat(x)
    i = -1
    for j, (bx, _) in enumerate(u.breakpoints):
        if bx <= x:
            i = j
        else:
            break
    return u._segment_slope(i)


def oracle_left_derivative(u: PotentialFunction, x) -> Fraction:
    x = rat(x)
    i = -1
    for j, (bx, _) in enumerate(u.breakpoints):
        if bx < x:
            i = j
        else:
            break
    return u._segment_slope(i)


def oracle_weight_at(mu: DiscreteMeasure, x) -> Fraction:
    x = rat(x)
    for pos, w in mu.atoms:
        if pos == x:
            return w
        if pos > x:
            break
    return Fraction(0)


def spelled(values):
    """Each drawn value as a Fraction, as 'p/q', as '2p/2q' or, if whole, as
    an int: equal values as distinct objects."""

    def spell(drawn):
        value, form = drawn
        forms = [value, str(value), f"{2 * value.numerator}/{2 * value.denominator}"]
        forms += [value.numerator] * (value.denominator == 1)
        return forms[form % len(forms)]

    return st.tuples(values, st.integers(0, 3)).map(spell)


merge_positions = spelled(st.sampled_from([F(-2), F(-1, 3), F(0), F(1, 2), F(2, 3), F(1), F(3, 2)]))
merge_weights = spelled(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1), F(5, 3)]))
signed_weights = spelled(st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 4), F(1, 2), F(1), F(5, 3)]))


class Unhashable(Fraction):
    """A Fraction that cannot be hashed."""

    __hash__ = None  # type: ignore[assignment]


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError or MathError it raised."""
    try:
        return fn(*args)
    except (ValueError, MathError) as exc:
        return type(exc), str(exc)


def oracle_atoms(atoms) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """The atoms of `DiscreteMeasure(atoms)`, merged in a dict keyed by position."""
    merged: dict = {}
    for x, w in atoms:
        x, w = rat(x), rat(w)
        if w.numerator <= 0:
            if w < 0:
                raise NegativeWeight(f"atom at {x} has negative weight {w}")
            continue
        before = merged.get(x)
        merged[x] = w if before is None else before + w
    return tuple(sorted(merged.items(), key=itemgetter(0)))


def oracle_subtract(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """mu - nu merged in a dict keyed by position, as `subtract` was."""
    weights = {x: w for x, w in mu.atoms}
    for x, w in nu.atoms:
        remaining = weights.get(x, Fraction(0)) - w
        if remaining < 0:
            raise NegativeWeight(f"subtraction drives weight at {x} to {remaining}")
        weights[x] = remaining
    return DiscreteMeasure(weights.items())


def oracle_paths(n: int, paths) -> Tuple[Tuple[tuple, Fraction], ...]:
    """The paths of `PathMeasure(n, paths)`, merged in a dict keyed by path."""
    merged: Dict[tuple, Fraction] = {}
    for coords, w in paths:
        key = tuple(rat(c) for c in coords)
        named = "(" + ", ".join(map(str, key)) + ")"
        if len(key) != n + 1:
            raise ValueError(f"path {named} does not have {n + 1} coordinates")
        w = rat(w)
        if w < 0:
            raise NegativeWeight(f"path {named} has negative weight {w}")
        if w == 0:
            continue
        merged[key] = merged.get(key, Fraction(0)) + w
    return tuple(sorted((p, w) for p, w in merged.items() if w != 0))


def oracle_path_measure(n: int, paths) -> PathMeasure:
    P = object.__new__(PathMeasure)
    object.__setattr__(P, "n", n)
    object.__setattr__(P, "paths", oracle_paths(n, paths))
    return P


def oracle_path_weight_at(P: PathMeasure, coords) -> Fraction:
    key = tuple(rat(c) for c in coords)
    for p, w in P.paths:
        if p == key:
            return w
    return Fraction(0)


@functools.lru_cache(maxsize=4)
def _oracle_free_step(mu0: DiscreteMeasure, mun: DiscreteMeasure) -> StepDecomposition:
    return oracle_sweep_decompose_step(mu0, mun)


def oracle_free_chargeable(
    mu0: DiscreteMeasure, mun: DiscreteMeasure, n: int, path: Sequence[Fraction]
) -> bool:
    """Whether the free-intermediate-marginal problem can charge the path,
    read off the paper's three n-step families of the decomposition of
    (mu0, mun): I_k^n x J_k, the pinned I_k^t x {p}^(n-t+1) for a closed
    endpoint p of J_k and t = 1..n, and the constant paths in I_0."""
    if len(path) != n + 1:
        raise ValueError("path length must be n + 1")
    if mu0.weight_at(path[0]) == 0 or mun.weight_at(path[-1]) == 0:
        return False
    step = _oracle_free_step(mu0, mun)
    for comp in step.components:
        inside = [comp.I.contains(x) for x in path]
        if all(inside[:-1]) and comp.J.contains(path[-1]):
            return True
        ends = ((comp.J.lo, comp.J.lo_closed), (comp.J.hi, comp.J.hi_closed))
        for p in (p for p, closed in ends if closed):
            for t in range(1, n + 1):
                if all(inside[:t]) and all(x == p for x in path[t:]):
                    return True
    x = path[0]
    return all(y == x for y in path) and any(iv.contains(x) for iv in step.diagonal_intervals())


def oracle_free_paths(
    mu0: DiscreteMeasure, mun: DiscreteMeasure, n: int, inner: Sequence[Fraction]
) -> List[Tuple[Fraction, ...]]:
    """The free problem's LP paths as they were enumerated: every path of the
    product supp(mu0) x inner^(n-1) x supp(mun), kept if chargeable."""
    product = itertools.product(mu0.support, *[inner] * (n - 1), mun.support)
    return [p for p in product if oracle_free_chargeable(mu0, mun, n, p)]


def oracle_shadow_atom(q, x, nu: DiscreteMeasure) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """(shadow, residual) of q*delta_x in nu by search over interval restrictions.

    Interior atoms are taken whole and the two endpoint fractions solve the
    2x2 mass/barycenter system; the least element is the feasible candidate
    of minimal second moment.  Raises NotInPositiveConvexOrder as
    `shadow_atom` does, naming the condition of `oracle_atom_failure`.
    """
    q, x = F(q), F(x)
    if q < 0:
        raise NotInPositiveConvexOrder(f"atom mass {q} is negative")
    if q == 0:
        return DiscreteMeasure.zero(), nu
    if not oracle_positive_convex_order_leq(DiscreteMeasure.dirac(x, q), nu):
        raise NotInPositiveConvexOrder(f"{q}*d[{x}] is not <=_pc the target: {oracle_atom_failure(q, x, nu)}")
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


def oracle_atom_failure(q: Fraction, x: Fraction, nu: DiscreteMeasure) -> Optional[str]:
    """Which condition of q*delta_x <=_pc nu fails, by the definition: q is
    more than nu's mass, or q*x is above the first moment of nu's rightmost
    mass q or below that of its leftmost; None when none does."""
    def first_moment(atoms):  # of the first q mass of `atoms`, in their order
        left, moment = q, F(0)
        for y, w in atoms:
            moment += min(w, left) * y
            left -= min(w, left)
        return moment

    if q > nu.mass:
        return "q is more than the mass left"
    if q * x > first_moment(reversed(nu.atoms)):
        return "x is right of the barycenter of the rightmost mass q"
    if q * x < first_moment(nu.atoms):
        return "x is left of the barycenter of the leftmost mass q"
    return None


def oracle_shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """(shadow, residual) of mu in nu, folding atom shadows left to right; the
    first atom that is not <=_pc what the atoms before it left raises."""
    total, residual = DiscreteMeasure.zero(), nu
    for x, w in mu:
        piece, residual = oracle_shadow_atom(w, x, residual)
        total = add(total, piece)
    return total, residual


def oracle_hull_shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Tuple[DiscreteMeasure, DiscreteMeasure]:
    """(shadow, residual) of mu in nu from P_shadow = P_nu - conv(P_nu - P_mu).

    The put-gap hull that the quantile-window fold of `shadow` replaced.
    Off the merged grid g_0 < ... < g_N the gap G = P_nu - P_mu is 0 on the
    left and affine with slope excess = nu.mass - mu.mass on the right, so
    the lower hull H of its grid values, with end slopes 0 and excess, is
    its convex minorant: the put potential of the residual, whose atoms are
    the slope jumps at the hull vertices (Beiglboeck-Hobson-Norgilas, "The
    potential of the shadow measure", 2022).  mu <=_pc nu holds exactly when
    the residual's two end atoms are nonnegative, and NotInPositiveConvexOrder
    is raised otherwise, before any measure is built; its message names
    neither an atom nor a condition, so only the verdict is compared.
    """
    grid, gap = oracle_put_gap(mu, nu)
    excess = nu.mass - mu.mass
    hull: List[Tuple[Fraction, Fraction]] = []
    for x, y in zip(grid, gap):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (x - x1) < (y - y1) * (x1 - x0):
                break
            hull.pop()
        hull.append((x, y))
    slopes = [F(0)]
    slopes += [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    slopes.append(excess)
    jumps = [b - a for a, b in zip(slopes, slopes[1:])]
    if jumps[0] < 0 or jumps[-1] < 0:
        raise NotInPositiveConvexOrder(f"{mu} is not <=_pc {nu}")
    residual = DiscreteMeasure((x, w) for (x, _), w in zip(hull, jumps))
    return subtract(nu, residual), residual


class OracleResidual:
    """`shadow._Residual` as it was in Fraction arithmetic: what is left of a
    target in two sorted lists of Fractions, consumed in place by
    `oracle_take`.  The integer residual must return `==` pieces, `==`
    measures and the same exceptions, worded here in Fractions."""

    def __init__(self, nu: DiscreteMeasure):
        self.xs = [x for x, _ in nu.atoms]
        self.ws = [w for _, w in nu.atoms]

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(zip(self.xs, self.ws))

    def take(self, x: Fraction, q: Fraction) -> List[Tuple[Fraction, Fraction]]:
        return oracle_take(self, x, q)


def oracle_take(residual: OracleResidual, x: Fraction, q: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """The shadow of q*delta_x (q >= 0) as sorted (y, w) pieces, subtracted
    from the residual: fill q mass from x rightward (or take the rightmost q
    mass), then slide both cuts left until the window's first moment is q*x,
    solving the last stretch in Fractions.  A failure names q*d[x] and what
    fails: the mass, the rightmost window's moment or the left cut."""
    if q == 0:
        return []
    failed = f"{q}*d[{x}] is not <=_pc the target: "
    xs, ws = residual.xs, residual.ws
    l = r = bisect_left(xs, x)
    filled = Fraction(0)
    while r < len(xs) and filled < q:
        filled += ws[r]
        r += 1
    if filled >= q:
        r -= 1
        out_l, out_r = Fraction(0), filled - q
    else:
        while l > 0 and filled < q:
            l -= 1
            filled += ws[l]
        if filled < q:
            raise NotInPositiveConvexOrder(failed + "q is more than the mass left")
        r = len(xs) - 1
        out_l, out_r = filled - q, Fraction(0)
    moment = sum((xs[i] * ws[i] for i in range(l, r + 1)), Fraction(0))
    moment -= out_l * xs[l] + out_r * xs[r]
    target = q * x
    if moment < target:
        raise NotInPositiveConvexOrder(failed + "x is right of the barycenter of the rightmost mass q")
    while moment != target:
        if out_l == 0:
            if l == 0:
                raise NotInPositiveConvexOrder(failed + "x is left of the barycenter of the leftmost mass q")
            l -= 1
            out_l = ws[l]
            continue
        inside_r = ws[r] - out_r - (out_l if l == r else 0)
        if inside_r == 0:
            r -= 1
            out_r = Fraction(0)
            continue
        rate = xs[r] - xs[l]
        step = min(out_l, inside_r)
        if moment - step * rate <= target:
            step = (moment - target) / rate
            moment = target
        else:
            moment -= step * rate
        out_l -= step
        out_r += step
    if l == r:
        pieces = [(xs[l], ws[l] - out_l - out_r)]
        kept = [(xs[l], out_l + out_r)]
    else:
        pieces = [(xs[l], ws[l] - out_l), *zip(xs[l + 1 : r], ws[l + 1 : r]), (xs[r], ws[r] - out_r)]
        kept = [(xs[l], out_l), (xs[r], out_r)]
    kept = [(y, w) for y, w in kept if w]
    xs[l : r + 1] = [y for y, _ in kept]
    ws[l : r + 1] = [w for _, w in kept]
    return [(y, w) for y, w in pieces if w]


def oracle_increments(
    marginals: Sequence[DiscreteMeasure],
) -> List[List[Tuple[DiscreteMeasure, Dict[tuple, List[Tuple[Fraction, Fraction]]]]]]:
    """Per atom of marginals[0], left to right: per date t >= 1 its increment
    and the kernels {(y,): pieces} that carry the increment at t - 1 to it,
    the takes of the atoms y of that increment, left to right, from one
    Fraction residual per date.  A piece (z, v) is what y sends to z, not
    divided by y's mass."""
    residuals = [OracleResidual(nu) for nu in marginals[1:]]
    out = []
    for x, q in marginals[0].atoms:
        lower = DiscreteMeasure.dirac(x, q)
        steps = []
        for residual in residuals:
            kernels = {(y,): residual.take(y, v) for y, v in lower.atoms}
            lower = DiscreteMeasure(piece for pieces in kernels.values() for piece in pieces)
            steps.append((lower, kernels))
        out.append(steps)
    return out


def oracle_left_curtain_rows(lower: DiscreteMeasure, upper: DiscreteMeasure) -> List[Tuple[Tuple[Fraction, Fraction], Fraction]]:
    """((y, z), w) rows of the Left-Curtain coupling: each atom of lower, left
    to right, sent to its hull shadow in what the atoms before it left of upper."""
    rows, residual = [], upper
    for y, v in lower:
        piece, residual = oracle_hull_shadow(DiscreteMeasure.dirac(y, v), residual)
        rows += [((y, z), w) for z, w in piece]
    return rows


def oracle_left_monotone(marginals: Sequence[DiscreteMeasure], couple) -> PathMeasure:
    """The left-monotone transport as it was built from hull shadows.

    Atom i of marginals[0] gets at date t the hull shadow of its increment
    at t - 1 in what atoms 0..i-1 left of marginal t; consecutive increments
    are coupled by `couple(lower, upper)`, a one-step PathMeasure.
    """
    residuals = list(marginals[1:])
    rows = []
    for x, q in marginals[0]:
        partial = [((x,), q)]
        lower = DiscreteMeasure.dirac(x, q)
        for t, nu in enumerate(residuals):
            upper, residuals[t] = oracle_hull_shadow(lower, nu)
            step = couple(lower, upper).paths
            partial = [
                (p + (z,), w * v / lower.weight_at(y))
                for p, w in partial
                for (y, z), v in step
                if y == p[-1]
            ]
            lower = upper
        rows += partial
    return oracle_path_measure(len(marginals) - 1, rows)


def oracle_kernels(P: PathMeasure, t: int) -> Dict[tuple, DiscreteMeasure]:
    """Unnormalized law of x_t given each positive-mass history x_0..x_{t-1},
    keyed in a dict by history, histories sorted."""
    laws: Dict[tuple, list] = {}
    for p, w in P.paths:
        laws.setdefault(p[:t], []).append((p[t], w))
    return {history: DiscreteMeasure(laws[history]) for history in sorted(laws)}


def oracle_markov_check(P: PathMeasure) -> bool:
    """`markov_check` from `oracle_kernels`, each kernel normalized and
    keyed in a dict by its history's last value."""
    for t in range(1, P.n + 1 if P.paths else 1):
        by_state: Dict[Fraction, DiscreteMeasure] = {}
        for prefix, kernel in oracle_kernels(P, t).items():
            normalized = kernel.scaled(1 / kernel.mass)
            if by_state.setdefault(prefix[-1], normalized) != normalized:
                return False
    return True


def oracle_is_martingale(P: PathMeasure) -> Tuple[bool, Optional[tuple]]:
    """(no drift, first drifting history) from the sums of w * (x_t - x_{t-1})
    per history x_0..x_{t-1}, date by date, histories in sorted order."""
    for t in range(1, P.n + 1):
        drift: Dict[tuple, Fraction] = {}
        for p, w in P.paths:
            prefix = p[:t]
            drift[prefix] = drift.get(prefix, Fraction(0)) + w * (p[t] - p[t - 1])
        for prefix, value in sorted(drift.items()):
            if value != 0:
                return False, prefix
    return True, None


def _oracle_hash_order_branches(gamma: SupportSet, t: int) -> Dict[tuple, List[Fraction]]:
    out: Dict[tuple, List[Fraction]] = {}
    for p in frozenset(p[: t + 1] for p in gamma.points):
        out.setdefault(p[:-1], []).append(p[-1])
    return out


def oracle_branches(gamma: SupportSet, t: int) -> Dict[tuple, List[Fraction]]:
    """Each history x_0..x_{t-1} with its sorted values x_t, histories sorted,
    read from the frozenset of prefixes x_0..x_t."""
    values: Dict[tuple, List[Fraction]] = {}
    for p in sorted(frozenset(p[: t + 1] for p in gamma.points)):
        values.setdefault(p[:-1], []).append(p[-1])
    return values


def oracle_scan_left_monotone_set(gamma: SupportSet) -> Tuple[bool, Optional[CrossingWitness]]:
    """The crossing scan over frozenset projections, histories in hash order."""
    for t in range(1, gamma.n + 1 if gamma.points else 1):
        groups = _oracle_hash_order_branches(gamma, t)
        spreads = {h: (min(ys), max(ys)) for h, ys in groups.items() if len(ys) > 1}
        for history, (lo, hi) in spreads.items():
            for other, ys in groups.items():
                if other[0] <= history[0]:
                    continue
                for y in ys:
                    if lo < y < hi:
                        return False, CrossingWitness(t, history, lo, hi, other, y)
    return True, None


def oracle_scan_nondegenerate_set(gamma: SupportSet) -> Tuple[bool, Optional[DegeneracyWitness]]:
    """The degeneracy scan over frozenset projections, histories in hash order."""
    for t in range(1, gamma.n + 1 if gamma.points else 1):
        for history, ys in _oracle_hash_order_branches(gamma, t).items():
            has_up = any(y > history[-1] for y in ys)
            has_down = any(y < history[-1] for y in ys)
            if has_up and not has_down:
                return False, DegeneracyWitness(t, history, max(ys))
            if has_down and not has_up:
                return False, DegeneracyWitness(t, history, min(ys))
    return True, None


def _oracle_values(gamma: SupportSet, t: int) -> Dict[tuple, set]:
    values: Dict[tuple, set] = {}
    for p in gamma.points:
        values.setdefault(p[:t], set()).add(p[t])
    return values


def oracle_first_crossing(gamma: SupportSet) -> Tuple[bool, Optional[CrossingWitness]]:
    """At the first date with one, every triple of a history h, another
    history from a strictly larger start, and one of its values strictly
    between h's least and greatest; the least in (h, other, value) order."""
    for t in range(1, gamma.n + 1):
        values = _oracle_values(gamma, t)
        triples = [
            CrossingWitness(t, h, min(ys), max(ys), other, y)
            for h, ys in values.items()
            for other, zs in values.items()
            if other[0] > h[0]
            for y in zs
            if min(ys) < y < max(ys)
        ]
        if triples:
            return False, min(triples, key=lambda w: (w.history, w.other_history, w.y_prime))
    return True, None


def oracle_first_degeneracy(gamma: SupportSet) -> Tuple[bool, Optional[DegeneracyWitness]]:
    """At the first date with one, every history with moves to one side of
    its last value only, and its farthest value; the least history."""
    for t in range(1, gamma.n + 1):
        one_sided = [
            DegeneracyWitness(t, h, max(ys) if max(ys) > h[-1] else min(ys))
            for h, ys in _oracle_values(gamma, t).items()
            if (max(ys) > h[-1]) != (min(ys) < h[-1])
        ]
        if one_sided:
            return False, min(one_sided, key=lambda w: w.history)
    return True, None


def oracle_prefix_records(P: PathMeasure, marginals: Sequence[DiscreteMeasure]) -> List[PrefixImageRecord]:
    """Every prefix image of P beside the obstructed prefix shadow iterated
    with the hull, in (atom, date) order, for a P whose marginals and
    martingale property are already known to hold."""
    records = []
    for a in marginals[0].support:
        restricted = P.restrict_first(a)
        expected = DiscreteMeasure((x, w) for x, w in marginals[0] if x <= a)
        for t in range(1, P.n + 1):
            expected = oracle_hull_shadow(expected, marginals[t])[0]
            records.append(PrefixImageRecord(a, t, restricted.marginal(t), expected))
    return records


def oracle_verify(P: PathMeasure, marginals: Sequence[DiscreteMeasure]) -> Tuple[bool, Optional[PrefixImageRecord]]:
    """(all match, first non-matching record) of `oracle_prefix_records`."""
    first = next((r for r in oracle_prefix_records(P, marginals) if r.image != r.expected), None)
    return first is None, first


def oracle_strong_order(marginals: Sequence[DiscreteMeasure]) -> bool:
    """Whether the hull shadows of every prefix of marginals[0] in
    marginals[1:] increase in convex order."""
    mu0 = marginals[0]
    for i in range(1, len(mu0) + 1):
        prefix = DiscreteMeasure(mu0.atoms[:i])
        shadows = [oracle_hull_shadow(prefix, nu)[0] for nu in marginals[1:]]
        if not all(map(convex_order_leq, shadows, shadows[1:])):
            return False
    return True


def oracle_running_strong_order(marginals: Sequence[DiscreteMeasure]) -> bool:
    """`strong_order_holds` as it was computed from running prefix shadows:
    the atoms of marginals[0] are taken left to right from one residual per
    date and added up, and every prefix's sums are compared in convex order."""
    marginals = list(marginals)
    residuals = [OracleResidual(nu) for nu in marginals[1:]]
    shadows = [DiscreteMeasure() for _ in residuals]
    for x, q in marginals[0].atoms:
        shadows = [add(s, DiscreteMeasure(r.take(x, q))) for s, r in zip(shadows, residuals)]
        if not all(map(convex_order_leq, shadows, shadows[1:])):
            return False
    return True


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
