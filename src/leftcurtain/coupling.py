"""Path measures and left-monotone martingale couplings.

A PathMeasure is a finitely supported measure on paths (x_0, ..., x_n); its
conditional laws are read by one ordered walk, `_histories(paths, t)`, which
groups the sorted paths by history without hashing one: the checks here,
the LP policy and the competitor LP of `geometry` read it.  The
constructions here build the multistep left-monotone transport (prefixes of
the first marginal are sent to their obstructed shadows, each atom's paths
composing one kernel per date), whose case n = 1 is the one-step
Left-Curtain coupling, and the degenerate monotone transport of the
free-intermediate-marginal problem.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import groupby, pairwise
from math import gcd, lcm, prod
from operator import getitem, itemgetter, lt
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .measure import (
    DiscreteMeasure,
    MathError,
    RationalLike,
    SchemaError,
    _merged,
    _put_sweep,
    _rat_from_json,
    _rat_to_json,
    _Value,
    rat,
    require_convex_order_chain,
)
from .shadow import _Residual, obstructed_shadow

Path = Tuple[Fraction, ...]


class MarginalMismatch(MathError, ValueError):
    """A path measure does not have the required marginals."""


class NotMartingale(MathError, ValueError):
    """A path measure fails the martingale property."""


class PathCountExceeded(MathError, RuntimeError):
    """A construction would exceed the configured path-count cap."""


class KernelPolicy(Enum):
    """How within-atom increment couplings are chosen.

    The bivariate projections of the constructed transport are the same
    either way; the policy only resolves the remaining freedom in the full
    joint law.
    """

    LEFT_CURTAIN_WITHIN_INCREMENTS = "left-curtain"
    LP_FEASIBLE = "lp-feasible"


class PathMeasure(_Value):
    """Sparse measure on R^(n+1) given by weighted support paths, read in
    input order, then sorted and merged in one pass (`measure._merged`);
    `left_monotone_multistep` builds its own in order (`_in_order`)."""

    __slots__ = ("n", "paths")
    n: int
    paths: Tuple[Tuple[Path, Fraction], ...]

    def __init__(self, n: int, paths: Iterable[Tuple[Sequence[RationalLike], RationalLike]] = ()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"step count must be a nonnegative integer, got {n!r}")

        def name(path: Path) -> str:
            return f"path ({', '.join(map(str, path))})"

        def read():
            for coords, w in paths:
                key = tuple(map(rat, coords))
                if len(key) != n + 1:
                    raise ValueError(f"{name(key)} does not have {n + 1} coordinates")
                yield key, rat(w)

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "paths", _merged(read(), name))

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def mass(self) -> Fraction:
        return sum((w for _, w in self.paths), Fraction(0))

    @property
    def support(self) -> Tuple[Path, ...]:
        return tuple(p for p, _ in self.paths)

    def weight_at(self, coords: Sequence[RationalLike]) -> Fraction:
        """The weight of the path `coords`, 0 off the support: one bisection of the paths."""
        key = tuple(rat(c) for c in coords)
        i = bisect_left(self.paths, (key,))
        return self.paths[i][1] if i < len(self.paths) and self.paths[i][0] == key else Fraction(0)

    def marginal(self, t: int) -> DiscreteMeasure:
        if not 0 <= t <= self.n:
            raise IndexError(f"marginal index {t} out of range")
        return DiscreteMeasure((p[t], w) for p, w in self.paths)

    def project(self, indices: Sequence[int]) -> "PathMeasure":
        """Pushforward under coordinate selection, aggregating weights."""
        if not indices:
            raise ValueError("a projection needs at least one coordinate")
        for i in indices:
            if not 0 <= i <= self.n:
                raise IndexError(f"coordinate index {i} out of range")
        return PathMeasure(
            len(indices) - 1,
            ((tuple(p[i] for i in indices), w) for p, w in self.paths),
        )

    def restrict_first(self, hi: RationalLike) -> "PathMeasure":
        """Restriction to paths with x_0 <= hi."""
        hi = rat(hi)
        return PathMeasure(self.n, ((p, w) for p, w in self.paths if p[0] <= hi))

    @staticmethod
    def mixture(parts: Sequence[Tuple["PathMeasure", RationalLike]]) -> "PathMeasure":
        if not parts:
            raise ValueError("mixture of nothing")
        n = parts[0][0].n
        pooled = []
        for pm, lam in parts:
            if pm.n != n:
                raise ValueError("mixture components must share the step count")
            pooled.extend((p, w * rat(lam)) for p, w in pm.paths)
        return PathMeasure(n, pooled)

    def expectation(self, reward) -> Fraction:
        return sum((w * rat(reward(p)) for p, w in self.paths), Fraction(0))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "paths": [
                {"x": [_rat_to_json(c) for c in p], "w": _rat_to_json(w)} for p, w in self.paths
            ],
        }

    @staticmethod
    def from_json(node: object, pointer: str = "") -> "PathMeasure":
        if not isinstance(node, dict) or "n" not in node or "paths" not in node:
            raise SchemaError(pointer, "coupling must be an object with 'n' and 'paths'")
        if not isinstance(node["n"], int) or isinstance(node["n"], bool) or node["n"] < 0:
            raise SchemaError(pointer + "/n", "must be a nonnegative integer")
        raw = node["paths"]
        if not isinstance(raw, list):
            raise SchemaError(pointer + "/paths", "must be an array")
        entries = []
        for i, entry in enumerate(raw):
            here = f"{pointer}/paths/{i}"
            if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
                raise SchemaError(here, "path must be an object with 'x' and 'w'")
            if not isinstance(entry["x"], list):
                raise SchemaError(here + "/x", "must be an array of rationals")
            coords = [
                _rat_from_json(c, f"{here}/x/{j}") for j, c in enumerate(entry["x"])
            ]
            w = _rat_from_json(entry["w"], here + "/w")
            if w <= 0:
                raise SchemaError(here + "/w", f"weight must be positive, got {w}")
            if len(coords) != node["n"] + 1:
                raise SchemaError(here + "/x", f"expected {node['n'] + 1} coordinates")
            entries.append((coords, w))
        return PathMeasure(node["n"], entries)

    def __str__(self) -> str:
        return " + ".join(f"{w}*d({', '.join(map(str, p))})" for p, w in self.paths) or "0"


def _histories(paths: Sequence[Tuple[Path, Fraction]], t: int) -> Iterable[Tuple[Path, Iterable[Tuple[Fraction, Fraction]]]]:
    """Each history x_0..x_{t-1} of the sorted `paths`, in increasing order,
    with the (x_t, w) pairs of its paths, grouped from consecutive paths: no
    history is hashed.  Each group is read before the next history."""
    for history, group in groupby(paths, lambda pair: pair[0][:t]):
        yield history, ((p[t], w) for p, w in group)


def is_martingale(P: PathMeasure) -> Tuple[bool, Optional[Path]]:
    """Exact martingale check; the witness is the first history, date by date,
    whose kernel's barycenter is not its last value."""
    for t in range(1, P.n + 1 if P.paths else 1):
        for history, group in _histories(P.paths, t):
            x = history[-1]
            if sum(w * (y - x) for y, w in group):
                return False, history
    return True, None


def markov_check(P: PathMeasure) -> bool:
    """True iff every conditional kernel depends only on the current state:
    per date, each history's kernel, divided by its mass, is paired with the
    history's last value, and the pairs, stably sorted by state, share one
    law per run of equal states.  No state or history is hashed."""
    for t in range(1, P.n + 1 if P.paths else 1):
        laws = []
        for history, group in _histories(P.paths, t):
            kernel = [(y, sum(w for _, w in ys)) for y, ys in groupby(group, itemgetter(0))]
            mass = sum(w for _, w in kernel)
            laws.append((history[-1], [(y, w / mass) for y, w in kernel]))
        laws.sort(key=itemgetter(0))
        if any(x == y and law != other for (x, law), (y, other) in pairwise(laws)):
            return False
    return True


def binomial_check(P: PathMeasure) -> bool:
    """True iff every positive-mass history branches into at most two points."""
    for t in range(1, P.n + 1 if P.paths else 1):
        for _, group in _histories(P.paths, t):
            if sum(1 for _ in groupby(y for y, _ in group)) > 2:
                return False
    return True


def left_curtain_one_step(mu: DiscreteMeasure, nu: DiscreteMeasure) -> PathMeasure:
    """The one-step Left-Curtain coupling of mu and nu: the left-monotone
    transport of the chain [mu, nu], the case n = 1 of the construction.

    Atoms of mu are processed left to right, each one mapped to the shadow of
    itself in what remains of nu; the prefix images of the result are exactly
    the shadows of the prefix restrictions.
    """
    return left_monotone_multistep([mu, nu])


def _feasible_martingale_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> PathMeasure:
    """First basic feasible point of the martingale transport polytope."""
    from .lpsolver import EXACT, _program, _solve, _with_reward

    program = _program({0: mu, 1: nu}, 1, [(x, y) for x in mu.support for y in nu.support])
    return _solve(_with_reward(program, lambda path: 0, EXACT)).optimizer


_Increment = List[Tuple[int, int, int]]
_Take = Tuple[List[Tuple[int, int]], int]


def _increments(marginals: Sequence[DiscreteMeasure]) -> List[List[Tuple[_Increment, List[_Take]]]]:
    """Per atom of marginals[0], left to right: per date t >= 1 its increment
    and the takes that carry the increment at t - 1 to it, in integers.

    An increment is a sorted list of (k, num, den): weight num / den, in
    lowest terms, at the atom of index k of marginal t (at t = 0, the atom
    itself).  Its takes are one `_Residual.take_ints` result (pieces, E)
    per atom (j, a, b) of the increment at t - 1, in its order: what j
    sends to each k, W / E for a piece (k, W), not divided by j's mass a /
    b.  The increment at t is these pieces merged on the lcm of the takes'
    scales.

    The increment of atom i at date t is the shadow of its increment at
    t - 1 in what the atoms before it left of marginal t, so the increments
    of atoms 0..i sum to the obstructed shadow of that prefix (shadow
    associativity); `verify_left_monotone` and `strong_order_holds` check
    prefixes atom by atom through this.  Each increment is <=_c the next,
    for every input, by Jensen's inequality: the take of an atom q*delta_x
    returns exactly the mass q and ends only when its first moment is q*x,
    so q*delta_x <=_c the take, and sums keep <=_c.  The takes are those of
    the atoms y of the increment at t - 1 from that residual, left to right,
    and they are the Left-Curtain coupling of the two increments: the takes
    of the same atoms from S = shadow(lower, R) alone.  For the first atom y
    of lower, associativity gives shadow(y, R) <= S, so shadow(y, R) lies in
    {theta : y <=_c theta <= S}; and shadow(y, S) lies in
    {theta : y <=_c theta <= R}, since S <= R.  Each is the least element
    of its set, so each is <=_c the other and they are equal.  Taking it
    from both leaves R' = R - shadow(y, R) and S - shadow(y, R), which by
    associativity is shadow(rest of lower, R'), so the argument repeats
    atom by atom.
    """
    positions = [mu.support for mu in marginals]
    residuals = [_Residual(nu) for nu in marginals[1:]]
    out = []
    for i, (_, q) in enumerate(marginals[0].atoms):
        lower = [(i, q.numerator, q.denominator)]
        steps = []
        for xs, residual in zip(positions, residuals):
            takes = [residual.take_ints(xs[j], a, b) for j, a, b in lower]
            scale = lcm(*(e for _, e in takes))
            summed: Dict[int, int] = {}
            for pieces, e in takes:
                for k, w in pieces:
                    summed[k] = summed.get(k, 0) + w * (scale // e)
            lower = [(k, w // g, scale // g) for k, w in sorted(summed.items()) for g in (gcd(w, scale),)]
            steps.append((lower, takes))
        out.append(steps)
    return out


def _measure(increment: _Increment, positions: Sequence[Fraction]) -> DiscreteMeasure:
    """`increment` as a measure on the `positions` of its marginal."""
    return DiscreteMeasure((positions[k], Fraction(n, d)) for k, n, d in increment)


def left_monotone_multistep(
    marginals: Sequence[DiscreteMeasure],
    policy: KernelPolicy = KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS,
    max_paths: int = 10**6,
) -> PathMeasure:
    """A left-monotone transport between the given marginals.

    Processes the atoms of the first marginal left to right.  Atom i receives
    at each date t the increment of the obstructed shadows of the prefix
    restrictions, computed incrementally against residual targets via the
    shadow additivity law; the increments of consecutive dates are in convex
    order by construction (see `_increments`) and are coupled one step at
    a time by the chosen policy (the
    default policy's Left-Curtain coupling is the takes that computed the
    increment, see `_increments`).  Everything runs in integers: a partial
    path is its tuple of support indices (k_0, ..., k_t) and its weight as
    an integer pair, times (W * b, E * a) per date for a piece W / E of the
    take of its last atom (j, a, b).  The paths come out in strictly
    increasing index order, so each finished path reads its positions and
    makes its Fraction weight once and the result is built as it is, with
    no sort or merge (`_in_order`).  The bivariate projections onto dates (0, t)
    are uniquely determined; only the full joint depends on the policy.
    Raises PathCountExceeded when the worst-case path count, which bounds
    every atom's paths since they step into its increments' supports,
    exceeds max_paths.
    """
    marginals = list(marginals)
    if len(marginals) < 2:
        raise ValueError("need at least two marginals")
    require_convex_order_chain(marginals)
    n = len(marginals) - 1
    increments = _increments(marginals)

    estimate = sum(prod(max(len(theta), 1) for theta, _ in steps) for steps in increments)
    if estimate > max_paths:
        raise PathCountExceeded(
            f"worst-case path count {estimate} exceeds the cap {max_paths}"
        )

    supports = [mu.support for mu in marginals]
    done: List[Tuple[Tuple[int, ...], int, int]] = []
    for i, ((_, q), steps) in enumerate(zip(marginals[0].atoms, increments)):
        partial = [((i,), q.numerator, q.denominator)]
        lower = [(i, q.numerator, q.denominator)]
        for t, (upper, takes) in enumerate(steps, start=1):
            if policy is KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS:
                step = {j: [(k, w * b, e * a) for k, w in pieces] for (j, a, b), (pieces, e) in zip(lower, takes)}
            else:
                ys = supports[t]
                feasible = _feasible_martingale_coupling(_measure(lower, supports[t - 1]), _measure(upper, ys))
                step = {j: [(bisect_left(ys, z), v.numerator * b, v.denominator * a) for z, v in group]
                        for (j, a, b), (_, group) in zip(lower, _histories(feasible.paths, 1))}
            partial = [(ks + (k,), a * b, c * d) for ks, a, c in partial for k, b, d in step[ks[-1]]]
            lower = upper
        done += partial
    return _in_order(n, supports, done)


def _in_order(n: int, supports: Sequence[Tuple[Fraction, ...]], done: list) -> PathMeasure:
    """The PathMeasure of the finished paths (ks, a, c), each through the
    atoms of indices ks of `supports` with weight a / c, taken as they are,
    the way `SupportSet.of` skips `__init__`: the walk emits the index
    tuples in increasing order and the supports increase, so one pass that
    checks the tuples (raising under `python -O` too) replaces the merge."""
    keys = [ks for ks, _, _ in done]
    if not all(map(lt, keys, keys[1:])):
        raise AssertionError("the construction's paths are not in increasing index order")
    P = object.__new__(PathMeasure)
    object.__setattr__(P, "n", n)
    object.__setattr__(P, "paths", tuple([(tuple(map(getitem, supports, ks)), Fraction(a, c)) for ks, a, c in done]))
    return P


class PrefixImageRecord(NamedTuple):
    """A prefix image that differs from the obstructed shadow of its prefix."""

    prefix: Fraction
    t: int
    image: DiscreteMeasure
    expected: DiscreteMeasure


def verify_left_monotone(
    P: PathMeasure, marginals: Sequence[DiscreteMeasure]
) -> Tuple[bool, Optional[PrefixImageRecord]]:
    """Check the defining prefix-image property of left-monotone transports.

    Verifies the marginals and the martingale property first (raising
    MarginalMismatch / NotMartingale), then that the image of every atom
    prefix of the first marginal at every date is the obstructed shadow of
    the prefix.  Both are sums over the prefix's atoms, of the images of
    their paths and of their increments (see `_increments`), so all match
    exactly when every atom's image equals its increment, and the first
    atom and date where they differ name the first prefix image that does
    not match.  Returns (True, None), or False and that prefix image.
    """
    marginals = list(marginals)
    if P.n != len(marginals) - 1:
        raise MarginalMismatch("marginal count does not match the step count")
    for t, mu in enumerate(marginals):
        if P.marginal(t) != mu:
            raise MarginalMismatch(f"marginal {t} differs")
    ok, witness = is_martingale(P)
    if not ok:
        raise NotMartingale(f"martingale property fails at prefix {witness}")

    # the marginal at 0 matches, so the paths from each atom, in order, are one group
    slices = (tuple(group) for _, group in groupby(P.paths, lambda pair: pair[0][0]))
    positions = [mu.support for mu in marginals]
    for i, ((a, _), steps, paths) in enumerate(zip(marginals[0].atoms, _increments(marginals), slices)):
        for t, (increment, _) in enumerate(steps, start=1):
            if DiscreteMeasure((p[t], w) for p, w in paths) != _measure(increment, positions[t]):
                image = P.restrict_first(a).marginal(t)
                expected = obstructed_shadow(DiscreteMeasure(marginals[0].atoms[: i + 1]), marginals[1 : t + 1])
                return False, PrefixImageRecord(a, t, image, expected)
    return True, None


def strong_order_holds(marginals: Sequence[DiscreteMeasure]) -> bool:
    """Whether plain prefix shadows increase in convex order along the dates.

    Exactly when this holds do the bivariate projections of a left-monotone
    transport reduce to one-step Left-Curtain couplings.  It is checked atom
    by atom: the integer takes of each atom of the first marginal from one
    residual per date must increase in convex order.  Each consecutive pair
    of takes, put on one weight scale as ints, is one `_put_sweep`, which
    fails on the conditions of `measure._convex_failure`.  (<=) A prefix's
    shadows are sums of its atoms' takes (shadow associativity), and sums of
    pairs in convex order are in convex order.  (=>) Fix a prefix p; if
    S_t(p) <=_c S_{t+1}(p), S_t being the shadow in mu_t, then S_{t+1}(p)
    lies in {theta : S_t(p) <=_c theta <= mu_{t+1}}, whose least element
    S_{t+1}(S_t(p)) lies in the larger set
    {theta : p <=_c theta <= mu_{t+1}}, whose least element is S_{t+1}(p).
    So the two are equal, by induction on t every obstructed shadow is
    plain, each atom's takes are its increments, and by `_increments` these
    increase.
    """
    marginals = list(marginals)
    require_convex_order_chain(marginals)
    return _strong_order_of_chain(marginals)


def _strong_order_of_chain(marginals: List[DiscreteMeasure]) -> bool:
    """`strong_order_holds` on a chain already known to be in convex order."""
    if len(marginals) <= 2:
        return True
    positions = [mu.support for mu in marginals[1:]]
    residuals = [_Residual(nu) for nu in marginals[1:]]
    for x, q in marginals[0].atoms:
        takes = [r.take_ints(x, q.numerator, q.denominator) for r in residuals]
        for (lower, d), (upper, e), below, above in zip(takes, takes[1:], positions, positions[1:]):
            scale = lcm(d, e)
            _, gap, mass, moment, _, _ = _put_sweep(
                [(above[k], w * (scale // e)) for k, w in upper],
                [(below[j], w * (scale // d)) for j, w in lower],
            )
            if mass or moment or min(gap) < 0:
                return False
    return True


def free_monotone_transport(
    mu0: DiscreteMeasure, mun: DiscreteMeasure, n: int
) -> PathMeasure:
    """The monotone transport with free intermediate marginals.

    Identity kernels for the first n-1 steps (all intermediate marginals
    equal the first), then the one-step Left-Curtain coupling into the final
    marginal.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    one_step = left_curtain_one_step(mu0, mun)
    return PathMeasure(
        n, (((x,) * n + (y,), w) for (x, y), w in one_step.paths)
    )
