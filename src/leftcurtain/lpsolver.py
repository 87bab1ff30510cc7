"""Exact primal-dual solver for multiperiod martingale transport.

The primal maximizes a path reward over martingale couplings of the given
marginals; variables are path masses on the product of the supports,
restricted to the effective domain.  The dual variables of the marginal rows
are the static positions phi_t, those of the martingale rows the predictable
strategy H, and together they hedge the reward from above, touching it
exactly on the contact set.  Everything is exact; 'float' mode only changes
how reward values are ingested (floats are dyadic rationals and are embedded
exactly), so the advertised 1e-9 tolerances hold trivially.

Everything that does not depend on the reward (the paths, the sparse rows,
the convex-order precondition and the decomposition) is a reward-free
`MotProgram`, built once per problem and kept in a small cache per problem
kind: a probe family solves one polytope for many rewards.  A reward makes
a copy that shares the rows, tuples of (column, coefficient) tuples, so
`simplex.phase1` remembers its end state for them and each probe's
`solve_lp` runs phase 2 only.  The dual checks read the hedge of every path
off the same rows, as y . A_j for the certificate's dual vector y, in
Python ints: the program keeps its rows and right sides over one scale each
(`MotProgram.scaled`), shared by the copies too, and the duals are put over
theirs, so no `Fraction` is made per path.  Reward ingestion, the LP and
the dual checks run on every call.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .coupling import Path, PathMeasure
from .decomposition import _effective_paths, decompose_chain, decompose_step
from .measure import DiscreteMeasure, RationalLike, _rat_to_json, rat
from .simplex import Infeasible, LpResult, _scale_to_int, solve_lp

if TYPE_CHECKING:
    from .geometry import SupportSet

Reward = Callable[[Path], Union[Fraction, int, float]]

EXACT = "exact"
FLOAT = "float"

# Reward-free programs kept per problem kind.  A probe family asks for one
# polytope over and over before it moves on to the next, and every entry
# keeps its paths and rows alive, so one entry per kind is the working set.
_CACHE_SIZE = 1


def _require_mode(mode: str) -> None:
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}, not {mode!r}")


def _ingest(value, mode: str) -> Fraction:
    if isinstance(value, float):
        if mode == EXACT:
            raise TypeError("exact mode requires rational reward values")
        return Fraction(value)
    return rat(value)


@dataclass
class MotProgram:
    """The LP data of one martingale transport instance.

    `marginals` maps each pinned date to its marginal: every date 0..n for
    the constrained problem, only 0 and n when the intermediate marginals
    are free.  `paths` are the LP variables and `row_keys` names each
    constraint row: ('marginal', t, point) rows pin the marginal of date t,
    ('martingale', t, prefix) rows force the conditional barycenters.
    Martingale rows exist for every history prefix of a variable path;
    prefixes extendable by no variable are vacuous and their dual is
    reported as zero.  `rows` and `rhs` are the system the program is
    solved on, the tuples of `lp_rows` unless given, and `scaled` is the
    same system in ints, (rows, row scale, rhs, rhs scale): every
    coefficient times the least common denominator of all of them, and
    every right side times theirs.  Programs that differ only in their
    reward share all three.
    """

    marginals: Dict[int, DiscreteMeasure]
    n: int
    paths: Tuple[Path, ...]
    reward_values: Tuple[Fraction, ...]
    mode: str
    row_keys: Tuple[tuple, ...]
    rows: Optional[tuple] = field(default=None, compare=False, repr=False)
    rhs: Optional[tuple] = field(default=None, compare=False, repr=False)
    scaled: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows is None:
            rows, rhs = self.lp_rows()
            self.rows, self.rhs = tuple(map(tuple, rows)), tuple(rhs)
        if self.scaled is None:
            d = math.lcm(*[a.denominator for row in self.rows for _, a in row])
            rows = [tuple([(j, a.numerator * (d // a.denominator)) for j, a in row]) for row in self.rows]
            rhs, e = _scale_to_int(self.rhs)
            self.scaled = (tuple(rows), d, tuple(rhs), e)

    def lp_rows(self) -> Tuple[List[List[Tuple[int, Fraction]]], List[Fraction]]:
        """The constraint rows as `simplex` reads them, (column, coefficient)
        pairs, and their right sides, in the order of `row_keys`."""
        index: Dict[tuple, int] = {key: i for i, key in enumerate(self.row_keys)}
        rows: List[List[Tuple[int, Fraction]]] = [[] for _ in self.row_keys]
        rhs = [Fraction(0)] * len(self.row_keys)
        one = Fraction(1)
        for t, mu in self.marginals.items():
            for point, w in mu.atoms:
                rhs[index[("marginal", t, point)]] = w
        for j, path in enumerate(self.paths):
            for t in self.marginals:
                rows[index[("marginal", t, path[t])]].append((j, one))
            for t in range(1, self.n + 1):
                rows[index[("martingale", t, path[:t])]].append((j, path[t] - path[t - 1]))
        return rows, rhs


def _program(pinned: Dict[int, DiscreteMeasure], n: int, paths: Sequence[Path]) -> MotProgram:
    """The reward-free program over `paths` with the marginals of the
    `pinned` dates fixed."""
    keys: List[tuple] = [("marginal", t, x) for t in sorted(pinned) for x in pinned[t].support]
    for t in range(1, n + 1):
        keys.extend(("martingale", t, prefix) for prefix in sorted({p[:t] for p in paths}))
    return MotProgram(pinned, n, tuple(paths), (), EXACT, tuple(keys))


def _with_reward(program: MotProgram, reward: Reward, mode: str) -> MotProgram:
    """`program` with the reward's values; the copy shares its rows."""
    values = tuple([_ingest(reward(p), mode) for p in program.paths])
    return replace(program, marginals=dict(program.marginals), reward_values=values, mode=mode)


def _solve(program: MotProgram) -> LPSolution:
    lp = solve_lp(program.reward_values, program.rows, program.rhs)
    paths = program.paths
    optimizer = PathMeasure(program.n, ((paths[k], v) for k, v in enumerate(lp.x) if v != 0))
    value: Union[Fraction, float] = lp.value if program.mode == EXACT else float(lp.value)
    return LPSolution(value, optimizer, program, lp.value, lp)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _constrained_program(marginals: Tuple[DiscreteMeasure, ...]) -> MotProgram:
    if not marginals:
        raise ValueError("need at least one marginal")
    paths = _effective_paths([mu.support for mu in marginals], decompose_chain(marginals))
    return _program(dict(enumerate(marginals)), len(marginals) - 1, paths)


def build_program(
    marginals: Sequence[DiscreteMeasure], reward: Reward, mode: str = EXACT
) -> MotProgram:
    """The constrained program: every date pinned, effective-domain paths."""
    _require_mode(mode)
    return _with_reward(_constrained_program(tuple(marginals)), reward, mode)


@dataclass
class LPSolution:
    """Optimal value and a basic optimal transport, plus the raw LP output."""

    value: Union[Fraction, float]
    optimizer: PathMeasure
    program: MotProgram
    exact_value: Fraction
    lp: LpResult


def solve_primal(
    marginals: Sequence[DiscreteMeasure], reward: Reward, mode: str = EXACT
) -> LPSolution:
    """Maximize the reward over martingale couplings of the marginals.

    Exact mode requires rational reward values and returns exact rationals;
    float mode embeds float rewards exactly and returns a float value.
    """
    return _solve(build_program(marginals, reward, mode))


def _H_json(H: Dict[Tuple[int, Path], Fraction]) -> List[dict]:
    return [
        {"t": t, "prefix": [_rat_to_json(c) for c in prefix], "value": _rat_to_json(v)}
        for (t, prefix), v in sorted(H.items())
    ]


@dataclass
class DualCertificate:
    """Dual optimizer: static positions phi_t and trading strategy H.

    `phi` has one entry per pinned date of the program.  Superhedging holds
    on every program path:
    sum_t phi_t(x_t) + sum_t H_t(x_0..x_{t-1}) (x_t - x_{t-1}) >= f(x),
    and the objective sum_t mu_t(phi_t) equals the primal value exactly.
    """

    phi: Dict[int, Dict[Fraction, Fraction]]
    H: Dict[Tuple[int, Path], Fraction]
    objective: Fraction
    program: MotProgram

    def hedges(self) -> List[Fraction]:
        """The hedge on every program path, in the order of `program.paths`:
        y . A_j for the path's column A_j of `program.rows` and the duals y
        that `phi` and `H` give the rows (zero where they have none)."""
        zero = Fraction(0)
        ys, scale = _scale_to_int([
            self.phi.get(t, {}).get(key, zero) if kind == "marginal" else self.H.get((t, key), zero)
            for kind, t, key in self.program.row_keys
        ])
        scale *= self.program.scaled[1]
        return [Fraction(h, scale) for h in _scaled_hedges(self.program, ys)]

    def to_json(self) -> dict:
        return {
            "objective": _rat_to_json(self.objective),
            "phi": [
                {
                    "t": t,
                    "values": {_rat_to_json(x): _rat_to_json(v) for x, v in sorted(values.items())},
                }
                for t, values in sorted(self.phi.items())
            ],
            "H": _H_json(self.H),
        }


def _scaled_hedges(program: MotProgram, ys: Sequence[int]) -> List[int]:
    """The hedge y . A_j of every program path, times the duals' scale and
    the rows', for the row duals y given as ints `ys` over one scale."""
    hedges = [0] * len(program.paths)
    for y, row in zip(ys, program.scaled[0]):
        if y:
            for j, a in row:
                hedges[j] += y * a
    return hedges


def _check_duals(
    program: MotProgram, duals: Sequence[Fraction], value: Fraction, x: Sequence[Fraction]
) -> Fraction:
    """The dual objective of the duals of `program`'s rows, checked in ints.

    Zero gap (the objective is the primal `value`), then path by path
    superhedging (hedge >= reward) and complementary slackness (hedge ==
    reward where x > 0); the first failure raises AssertionError naming it.
    The duals go over their least common denominator and the rows and right
    sides are `program.scaled`, so a path's integer hedge h and reward p/q
    compare as h * q against p * scale.
    """
    ys, y_scale = _scale_to_int(duals)
    _, a_scale, rhs, b_scale = program.scaled
    objective = Fraction(sum(map(mul, ys, rhs)), y_scale * b_scale)
    if objective != value:
        raise AssertionError("dual objective does not match the primal value")
    scale = y_scale * a_scale
    for path, f, w, h in zip(program.paths, program.reward_values, x, _scaled_hedges(program, ys)):
        hedge, reward = h * f.denominator, f.numerator * scale
        if hedge < reward:
            raise AssertionError(f"superhedging fails on {path}")
        if hedge != reward and w > 0:
            raise AssertionError(f"complementary slackness fails on {path}")
    return objective


def extract_dual(program: MotProgram, solution: LPSolution) -> DualCertificate:
    """Read the dual optimizer off the optimal basis and verify it.

    Zero duality gap (the duals times the program's right sides), the
    superhedging inequality on every program path and complementary
    slackness on the support of the optimizer are checked in ints
    (`_check_duals`) before the certificate is returned.  Raises ValueError
    when `solution` was solved on another program.
    """
    if program is not solution.program and program != solution.program:
        raise ValueError("the solution was solved on another program")
    duals = solution.lp.duals
    phi: Dict[int, Dict[Fraction, Fraction]] = {t: {} for t in program.marginals}
    H: Dict[Tuple[int, Path], Fraction] = {}
    for (kind, t, key), y in zip(program.row_keys, duals):
        if kind == "marginal":
            phi[t][key] = y
        elif y != 0:
            H[(t, key)] = y
    objective = _check_duals(program, duals, solution.exact_value, solution.lp.x)
    return DualCertificate(phi, H, objective, program)


def contact_set(certificate: DualCertificate, reward: Reward) -> SupportSet:
    """Effective-domain grid paths where the hedge touches the reward."""
    from .geometry import SupportSet

    program = certificate.program
    touching = [
        path
        for path, hedge in zip(program.paths, certificate.hedges())
        if hedge == _ingest(reward(path), program.mode)
    ]
    return SupportSet(program.n, touching)


def feasible_transport(marginals: Sequence[DiscreteMeasure]) -> PathMeasure:
    """A basic feasible martingale coupling of the marginals (reward zero)."""
    return solve_primal(marginals, lambda path: 0).optimizer


def chain_min_call(
    mu0_part: DiscreteMeasure,
    chain: Sequence[DiscreteMeasure],
    t: int,
    b: RationalLike,
) -> Fraction:
    """LP minimum of the call value of theta_t over the chain-feasible set.

    The set consists of the terminal measures of chains
    mu0_part <=_c theta_1 <=_c ... <=_c theta_t with theta_s <= chain[s-1];
    consecutive convex-order constraints are encoded as martingale-coupling
    feasibility blocks.  Raises Infeasible when the set is empty.
    """
    b = rat(b)
    if not 1 <= t <= len(chain):
        raise ValueError("t must lie between 1 and the chain length")
    if mu0_part.is_zero:
        return Fraction(0)
    cols, rows, rhs, senses = _chain_min_skeleton(mu0_part, tuple(chain[:t]))
    zero = Fraction(0)
    objective = [y - b if s == t and y > b else zero for s, _, y in cols]
    return solve_lp(objective, rows, rhs, senses, maximize=False).value


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _chain_min_skeleton(mu0_part: DiscreteMeasure, chain: Tuple[DiscreteMeasure, ...]) -> tuple:
    """The columns (step s, x, y), rows, rhs and senses of `chain_min_call`'s
    LP, which do not depend on the strike."""
    t = len(chain)
    grids: List[Tuple[Fraction, ...]] = [mu0_part.support]
    grids += [chain[s].support for s in range(t)]

    cols: List[Tuple[int, Fraction, Fraction]] = []  # (step s, x, y)
    for s in range(1, t + 1):
        for x in grids[s - 1]:
            for y in grids[s]:
                cols.append((s, x, y))
    col_index = {c: k for k, c in enumerate(cols)}

    one, zero = Fraction(1), Fraction(0)
    system: List[tuple] = []  # (sparse row, right side, sense)
    for x, w in mu0_part.atoms:
        system.append(([(col_index[(1, x, y)], one) for y in grids[1]], w, "="))
    for s in range(1, t):
        for y in grids[s]:
            row = [(col_index[(s + 1, y, z)], one) for z in grids[s + 1]]
            row += [(col_index[(s, x, y)], -one) for x in grids[s - 1]]
            system.append((row, zero, "="))
    for s in range(1, t + 1):
        for x in grids[s - 1]:
            system.append(([(col_index[(s, x, y)], y - x) for y in grids[s]], zero, "="))
        for y, w in chain[s - 1].atoms:
            system.append(([(col_index[(s, x, y)], one) for x in grids[s - 1]], w, "<="))
    rows, rhs, senses = zip(*system)
    return tuple(cols), tuple(map(tuple, rows)), rhs, senses


@dataclass
class FreeDualCertificate:
    """Dual optimizer (phi, psi, H) of the free-marginal problem.

    phi and psi are the static positions of dates 0 and n, the only pinned
    dates of `program`.
    """

    phi: Dict[Fraction, Fraction]
    psi: Dict[Fraction, Fraction]
    H: Dict[Tuple[int, Path], Fraction]
    objective: Fraction
    program: MotProgram

    def to_json(self) -> dict:
        return {
            "objective": _rat_to_json(self.objective),
            "phi": {_rat_to_json(x): _rat_to_json(v) for x, v in sorted(self.phi.items())},
            "psi": {_rat_to_json(x): _rat_to_json(v) for x, v in sorted(self.psi.items())},
            "H": _H_json(self.H),
        }


@dataclass
class FreeSolution:
    value: Union[Fraction, float]
    optimizer: PathMeasure
    certificate: FreeDualCertificate
    exact_value: Fraction


def solve_free(
    mu0: DiscreteMeasure,
    mun: DiscreteMeasure,
    n: int,
    reward: Reward,
    grid: Optional[Sequence[RationalLike]] = None,
    mode: str = EXACT,
) -> FreeSolution:
    """Solve the transport problem with only the first and last marginals pinned.

    This is the constrained program with the intermediate marginal rows
    dropped.  Paths run over the intermediate grid (default: union of the
    two supports; the canonical monotone transport lives on it) that stay in
    the effective domain of n steps each decomposed as (mu0, mun), which is
    the union of the n-step components (see `free_polar_test`); the dual
    (phi, psi, H) is verified by `extract_dual` like any other certificate.
    Raises Infeasible when a given grid carries no martingale transport of
    the marginals.
    """
    _require_mode(mode)
    points = set(mu0.support) | set(mun.support) if grid is None else {rat(g) for g in grid}
    inner = tuple(sorted(points))
    program = _free_program(mu0, mun, n, inner)
    try:
        solution = _solve(_with_reward(program, reward, mode))
    except Infeasible:
        raise Infeasible(
            f"no martingale transport of the marginals in {n} steps lives on the grid "
            f"[{', '.join(map(str, inner))}]"
        ) from None
    dual = extract_dual(solution.program, solution)
    certificate = FreeDualCertificate(
        dual.phi[0], dual.phi[n], dual.H, dual.objective, solution.program
    )
    return FreeSolution(solution.value, solution.optimizer, certificate, solution.exact_value)


# Typed, so that a float n, which raises TypeError, is not served an int's entry.
@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _free_program(
    mu0: DiscreteMeasure, mun: DiscreteMeasure, n: int, inner: Tuple[Fraction, ...]
) -> MotProgram:
    if n < 1:
        raise ValueError("n must be at least 1")
    grids = [mu0.support] + [inner] * (n - 1) + [mun.support]
    return _program({0: mu0, n: mun}, n, _effective_paths(grids, [decompose_step(mu0, mun)] * n))


# --- reward helpers and the CLI mini-language ------------------------------


def left_tail_put_reward(a: RationalLike, t: int, b: RationalLike) -> Reward:
    """The probe family 1{x_0 <= a} * (-(x_t - b)^+).

    Left-monotone transports attain the transport optimum simultaneously for
    every member of this family.
    """
    a, b, zero = rat(a), rat(b), Fraction(0)

    def reward(path: Path):
        if path[0] > a:
            return zero
        y = path[t]
        return b - y if y > b else zero

    return reward


def tanh_sm_reward(t: int) -> Reward:
    """The smooth strictly Spence-Mirrlees reward tanh(x_0) * sqrt(1 + x_t^2)."""

    def reward(path: Path) -> float:
        return math.tanh(float(path[0])) * math.sqrt(1.0 + float(path[t]) ** 2)

    return reward


_FACTOR_RE = re.compile(
    r"""^(?:
        (?P<const>[+-]?\d+(?:/\d+)?) |
        indicator\(\s*t\s*=\s*(?P<it>\d+)\s*,\s*(?P<dir><=|>=)\s*(?P<ia>[+-]?\d+(?:/\d+)?)\s*\) |
        (?P<fn>call|put|abs)\(\s*(?P<ft>\d+)\s*,\s*(?P<fb>[+-]?\d+(?:/\d+)?)\s*\) |
        tanh_sm\(\s*(?P<st>\d+)\s*\)
    )$""",
    re.VERBOSE,
)


@dataclass
class RewardSpec:
    """A parsed product reward: callable plus rationality information."""

    text: str
    factors: Tuple[Callable[[Path], Union[Fraction, float]], ...]
    is_rational: bool
    max_index: int

    def __call__(self, path: Path) -> Union[Fraction, float]:
        result: Union[Fraction, float] = Fraction(1)
        for factor in self.factors:
            result = result * factor(path)
        return result


def parse_reward(text: str) -> RewardSpec:
    """Parse the product mini-language.

    Factors separated by '*': rational constants, indicator(t=T, <=A) (or >=),
    call(T, B), put(T, B), abs(T, B), tanh_sm(T).  A factor that is none of
    these raises ValueError naming its 0-based character position in `text`.
    """
    factors: List[Callable[[Path], Union[Fraction, float]]] = []
    rational = True
    max_index = 0
    start = 0
    for raw in text.split("*"):
        part = raw.strip()
        at = start + len(raw) - len(raw.lstrip())
        start += len(raw) + 1
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse reward factor {part!r} at character {at}")
        if m.group("const") is not None:
            value = Fraction(m.group("const"))
            factors.append(lambda path, value=value: value)
        elif m.group("it") is not None:
            t = int(m.group("it"))
            a = Fraction(m.group("ia"))
            flip = m.group("dir") == ">="
            max_index = max(max_index, t)

            def indicator(path, t=t, a=a, flip=flip):
                hit = path[t] >= a if flip else path[t] <= a
                return Fraction(1) if hit else Fraction(0)

            factors.append(indicator)
        elif m.group("fn") is not None:
            fn = m.group("fn")
            t = int(m.group("ft"))
            b = Fraction(m.group("fb"))
            max_index = max(max_index, t)
            if fn == "call":
                factors.append(lambda path, t=t, b=b: max(path[t] - b, Fraction(0)))
            elif fn == "put":
                factors.append(lambda path, t=t, b=b: max(b - path[t], Fraction(0)))
            else:
                factors.append(lambda path, t=t, b=b: abs(path[t] - b))
        else:
            t = int(m.group("st"))
            max_index = max(max_index, t)
            rational = False
            factors.append(tanh_sm_reward(t))
    return RewardSpec(text, tuple(factors), rational, max_index)
