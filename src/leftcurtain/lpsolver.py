"""Exact primal-dual solver for multiperiod martingale transport.

The primal maximizes a path reward over martingale couplings of the given
marginals; variables are path masses on the product of the supports,
restricted to the effective domain.  The dual variables of the marginal rows
are the static positions phi_t, those of the martingale rows the predictable
strategy H, and together they form a superhedge that touches the reward
exactly on the contact set.  Everything is exact; 'float' mode only changes
how reward values are ingested (floats are dyadic rationals and are embedded
exactly), so the advertised 1e-9 tolerances hold trivially.

Everything that does not depend on the reward (the paths, the rows, the
convex-order precondition and the decomposition) is a skeleton, built once
per problem and kept in a small cache per problem kind: a probe family
solves one polytope for many rewards.  The skeleton's rows are tuples, so
`simplex.phase1` remembers its end state for them and each probe's
`solve_lp` runs phase 2 only.  Reward ingestion, the LP and the dual checks
run on every call.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .coupling import Path, PathMeasure
from .decomposition import StepDecomposition, decompose_step, n_step_components
from .geometry import SupportSet
from .measure import (
    DiscreteMeasure,
    RationalLike,
    rat,
    require_convex_order,
    require_convex_order_chain,
)
from .simplex import Infeasible, LpResult, solve_lp

Reward = Callable[[Path], Union[Fraction, int, float]]

EXACT = "exact"
FLOAT = "float"

# Skeletons kept per problem kind.  A probe family asks for one polytope
# over and over before it moves on to the next, and every entry keeps its
# paths and rows alive, so one entry per kind is the working set.
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
    reported as zero.
    """

    marginals: Dict[int, DiscreteMeasure]
    n: int
    paths: Tuple[Path, ...]
    reward_values: Tuple[Fraction, ...]
    mode: str
    row_keys: Tuple[tuple, ...]

    def lp_rows(self) -> Tuple[List[List[Fraction]], List[Fraction]]:
        index: Dict[tuple, int] = {key: i for i, key in enumerate(self.row_keys)}
        width = len(self.paths)
        rows = [[Fraction(0)] * width for _ in self.row_keys]
        rhs = [Fraction(0)] * len(self.row_keys)
        for t, mu in self.marginals.items():
            for point, w in mu.atoms:
                rhs[index[("marginal", t, point)]] = w
        for j, path in enumerate(self.paths):
            for t in self.marginals:
                rows[index[("marginal", t, path[t])]][j] = Fraction(1)
            for t in range(1, self.n + 1):
                rows[index[("martingale", t, path[:t])]][j] = path[t] - path[t - 1]
        return rows, rhs


@dataclass(frozen=True)
class _Skeleton:
    """A program up to its reward: `frame` has no reward values, and its rows
    are kept as the tuples that `simplex.phase1` remembers."""

    frame: MotProgram
    rows: Tuple[Tuple[Fraction, ...], ...]
    rhs: Tuple[Fraction, ...]

    def program(self, reward: Reward, mode: str) -> MotProgram:
        f = self.frame
        values = tuple(_ingest(reward(p), mode) for p in f.paths)
        return MotProgram(dict(f.marginals), f.n, f.paths, values, mode, f.row_keys)

    def solve(self, program: MotProgram) -> LPSolution:
        lp = solve_lp(program.reward_values, self.rows, self.rhs)
        paths = program.paths
        optimizer = PathMeasure(program.n, ((paths[k], v) for k, v in enumerate(lp.x) if v != 0))
        value: Union[Fraction, float] = lp.value if program.mode == EXACT else float(lp.value)
        return LPSolution(value, optimizer, program, lp.value, lp)


def _skeleton(pinned: Dict[int, DiscreteMeasure], n: int, paths: Sequence[Path]) -> _Skeleton:
    """The program over `paths` with the marginals of the `pinned` dates fixed."""
    keys: List[tuple] = [("marginal", t, x) for t in sorted(pinned) for x in pinned[t].support]
    for t in range(1, n + 1):
        keys.extend(("martingale", t, prefix) for prefix in sorted({p[:t] for p in paths}))
    frame = MotProgram(pinned, n, tuple(paths), (), EXACT, tuple(keys))
    rows, rhs = frame.lp_rows()
    return _Skeleton(frame, tuple(map(tuple, rows)), tuple(rhs))


def _effective_paths(
    grids: Sequence[Sequence[Fraction]], decomps: Sequence[StepDecomposition]
) -> List[Path]:
    paths: List[Path] = [(x,) for x in grids[0]]
    for t in range(1, len(grids)):
        extended = []
        for p in paths:
            for y in grids[t]:
                if decomps[t - 1].pair_component(p[-1], y) is not None:
                    extended.append(p + (y,))
        paths = extended
    return paths


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _constrained_skeleton(marginals: Tuple[DiscreteMeasure, ...]) -> _Skeleton:
    if not marginals:
        raise ValueError("need at least one marginal")
    require_convex_order_chain(marginals)
    decomps = [decompose_step(marginals[t - 1], marginals[t]) for t in range(1, len(marginals))]
    paths = _effective_paths([mu.support for mu in marginals], decomps)
    return _skeleton(dict(enumerate(marginals)), len(marginals) - 1, paths)


def build_program(
    marginals: Sequence[DiscreteMeasure], reward: Reward, mode: str = EXACT
) -> MotProgram:
    """The constrained program: every date pinned, effective-domain paths."""
    _require_mode(mode)
    return _constrained_skeleton(tuple(marginals)).program(reward, mode)


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
    marginals = tuple(marginals)
    program = build_program(marginals, reward, mode)
    return _constrained_skeleton(marginals).solve(program)


def _H_json(H: Dict[Tuple[int, Path], Fraction]) -> List[dict]:
    return [
        {"t": t, "prefix": [str(c) for c in prefix], "value": str(v)}
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

    def phi_value(self, t: int, x: Fraction) -> Fraction:
        return self.phi.get(t, {}).get(x, Fraction(0))

    def H_value(self, t: int, prefix: Path) -> Fraction:
        return self.H.get((t, prefix), Fraction(0))

    def superhedge(self, path: Path) -> Fraction:
        total = Fraction(0)
        for t, x in enumerate(path):
            total += self.phi_value(t, x)
        for t in range(1, len(path)):
            total += self.H_value(t, path[:t]) * (path[t] - path[t - 1])
        return total

    def to_json(self) -> dict:
        return {
            "objective": str(self.objective),
            "phi": [
                {"t": t, "values": {str(x): str(v) for x, v in sorted(values.items())}}
                for t, values in sorted(self.phi.items())
            ],
            "H": _H_json(self.H),
        }


def extract_dual(program: MotProgram, solution: LPSolution) -> DualCertificate:
    """Read the dual optimizer off the optimal basis and verify it.

    Zero duality gap, the superhedging inequality on every program path and
    complementary slackness on the support of the optimizer are checked
    before the certificate is returned.
    """
    phi: Dict[int, Dict[Fraction, Fraction]] = {t: {} for t in program.marginals}
    H: Dict[Tuple[int, Path], Fraction] = {}
    for key, y in zip(program.row_keys, solution.lp.duals):
        if key[0] == "marginal":
            _, t, point = key
            phi[t][point] = y
        else:
            _, t, prefix = key
            if y != 0:
                H[(t, prefix)] = y
    objective = sum(
        (
            program.marginals[t].weight_at(point) * value
            for t, values in phi.items()
            for point, value in values.items()
        ),
        Fraction(0),
    )
    certificate = DualCertificate(phi, H, objective, program)
    if objective != solution.exact_value:
        raise AssertionError("dual objective does not match the primal value")
    for path, f_val, w in zip(program.paths, program.reward_values, solution.lp.x):
        hedge = certificate.superhedge(path)
        if hedge < f_val:
            raise AssertionError(f"superhedging fails on {path}")
        if w > 0 and hedge != f_val:
            raise AssertionError(f"complementary slackness fails on {path}")
    return certificate


def contact_set(certificate: DualCertificate, reward: Reward) -> SupportSet:
    """Effective-domain grid paths where the superhedge touches the reward."""
    program = certificate.program
    touching = [
        path
        for path in program.paths
        if certificate.superhedge(path) == _ingest(reward(path), program.mode)
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
    objective = [y - b if s == t and y > b else Fraction(0) for s, _, y in cols]
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

    def superhedge(self, path: Path) -> Fraction:
        total = self.phi.get(path[0], Fraction(0)) + self.psi.get(path[-1], Fraction(0))
        for t in range(1, len(path)):
            total += self.H.get((t, path[:t]), Fraction(0)) * (path[t] - path[t - 1])
        return total

    def to_json(self) -> dict:
        return {
            "objective": str(self.objective),
            "phi": {str(x): str(v) for x, v in sorted(self.phi.items())},
            "psi": {str(x): str(v) for x, v in sorted(self.psi.items())},
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
    two supports; the canonical monotone transport lives on it) intersected
    with the n-step components; the dual (phi, psi, H) is verified by
    `extract_dual` like any other certificate.  Raises Infeasible when a
    given grid carries no martingale transport of the marginals.
    """
    _require_mode(mode)
    points = set(mu0.support) | set(mun.support) if grid is None else {rat(g) for g in grid}
    inner = tuple(sorted(points))
    skeleton = _free_skeleton(mu0, mun, n, inner)
    try:
        solution = skeleton.solve(skeleton.program(reward, mode))
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
def _free_skeleton(
    mu0: DiscreteMeasure, mun: DiscreteMeasure, n: int, inner: Tuple[Fraction, ...]
) -> _Skeleton:
    require_convex_order(mu0, mun)
    if n < 1:
        raise ValueError("n must be at least 1")
    components = tuple(n_step_components(mu0, mun, n))

    paths: List[Path] = [(x,) for x in mu0.support]
    for t in range(1, n + 1):
        coords = mun.support if t == n else inner
        paths = [p + (y,) for p in paths for y in coords]
    paths = [p for p in paths if any(c.contains(p) for c in components)]
    return _skeleton({0: mu0, n: mun}, n, paths)


# --- reward helpers and the CLI mini-language ------------------------------


def left_tail_put_reward(a: RationalLike, t: int, b: RationalLike) -> Reward:
    """The probe family 1{x_0 <= a} * (-(x_t - b)^+).

    Left-monotone transports attain the transport optimum simultaneously for
    every member of this family.
    """
    a, b = rat(a), rat(b)

    def reward(path: Path):
        if path[0] > a:
            return Fraction(0)
        return -max(path[t] - b, Fraction(0))

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
    call(T, B), put(T, B), abs(T, B), tanh_sm(T).
    """
    factors: List[Callable[[Path], Union[Fraction, float]]] = []
    rational = True
    max_index = 0
    for raw in text.split("*"):
        part = raw.strip()
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse reward factor {part!r}")
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
            factors.append(
                lambda path, t=t: math.tanh(float(path[0]))
                * math.sqrt(1.0 + float(path[t]) ** 2)
            )
    return RewardSpec(text, tuple(factors), rational, max_index)
