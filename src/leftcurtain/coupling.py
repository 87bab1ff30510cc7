"""Path measures and left-monotone martingale couplings.

A PathMeasure is a finitely supported measure on paths (x_0, ..., x_n).  The
constructions here build the one-step Left-Curtain coupling, its multistep
left-monotone generalization (prefixes of the first marginal are sent to
their obstructed shadows), and the degenerate monotone transport of the
free-intermediate-marginal problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .measure import (
    DiscreteMeasure,
    Interval,
    NegativeWeight,
    RationalLike,
    SchemaError,
    _rat_from_json,
    convex_order_leq,
    rat,
    require_convex_order,
    require_convex_order_chain,
)
from .shadow import shadow, shadow_atom

Path = Tuple[Fraction, ...]


class MarginalMismatch(ValueError):
    """A path measure does not have the required marginals."""


class NotMartingale(ValueError):
    """A path measure fails the martingale property."""


class PathCountExceeded(RuntimeError):
    """A construction would exceed the configured path-count cap."""


class KernelPolicy(Enum):
    """How within-atom increment couplings are chosen.

    The bivariate projections of the constructed transport are the same
    either way; the policy only resolves the remaining freedom in the full
    joint law.
    """

    LEFT_CURTAIN_WITHIN_INCREMENTS = "left-curtain"
    LP_FEASIBLE = "lp-feasible"


@dataclass(frozen=True)
class PathMeasure:
    """Sparse measure on R^(n+1) given by weighted support paths."""

    n: int
    paths: Tuple[Tuple[Path, Fraction], ...] = ()

    def __init__(self, n: int, paths: Iterable[Tuple[Sequence[RationalLike], RationalLike]] = ()):
        merged: Dict[Path, Fraction] = {}
        for coords, w in paths:
            key = tuple(rat(c) for c in coords)
            if len(key) != n + 1:
                raise ValueError(f"path {key} does not have {n + 1} coordinates")
            w = rat(w)
            if w < 0:
                raise NegativeWeight(f"path {key} has negative weight {w}")
            if w == 0:
                continue
            merged[key] = merged.get(key, Fraction(0)) + w
        cleaned = tuple(sorted((p, w) for p, w in merged.items() if w != 0))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "paths", cleaned)

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
        key = tuple(rat(c) for c in coords)
        for p, w in self.paths:
            if p == key:
                return w
        return Fraction(0)

    def marginal(self, t: int) -> DiscreteMeasure:
        if not 0 <= t <= self.n:
            raise IndexError(f"marginal index {t} out of range")
        return DiscreteMeasure((p[t], w) for p, w in self.paths)

    def project(self, indices: Sequence[int]) -> "PathMeasure":
        """Pushforward under coordinate selection, aggregating weights."""
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

    def scaled(self, factor: RationalLike) -> "PathMeasure":
        factor = rat(factor)
        return PathMeasure(self.n, ((p, w * factor) for p, w in self.paths))

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
                {"x": [str(c) for c in p], "w": str(w)} for p, w in self.paths
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
        return " + ".join(f"{w}*d{tuple(map(str, p))}" for p, w in self.paths) or "0"


def coupling_from_json_str(text: str) -> PathMeasure:
    try:
        node = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from None
    return PathMeasure.from_json(node)


def is_martingale(P: PathMeasure) -> Tuple[bool, Optional[Path]]:
    """Exact martingale check; the witness is a violating history prefix."""
    for t in range(1, P.n + 1):
        drift: Dict[Path, Fraction] = {}
        for p, w in P.paths:
            prefix = p[:t]
            drift[prefix] = drift.get(prefix, Fraction(0)) + w * (p[t] - p[t - 1])
        for prefix, value in sorted(drift.items()):
            if value != 0:
                return False, prefix
    return True, None


def _kernels_by_prefix(P: PathMeasure, t: int) -> Dict[Path, DiscreteMeasure]:
    """Unnormalized conditional laws of x_t given each positive-mass prefix."""
    out: Dict[Path, List[Tuple[Fraction, Fraction]]] = {}
    for p, w in P.paths:
        out.setdefault(p[:t], []).append((p[t], w))
    return {prefix: DiscreteMeasure(rows) for prefix, rows in out.items()}


def markov_check(P: PathMeasure) -> bool:
    """True iff every conditional kernel depends only on the current state."""
    for t in range(1, P.n + 1):
        by_state: Dict[Fraction, DiscreteMeasure] = {}
        for prefix, kernel in _kernels_by_prefix(P, t).items():
            normalized = kernel.scaled(1 / kernel.mass)
            state = prefix[-1]
            if state in by_state:
                if by_state[state] != normalized:
                    return False
            else:
                by_state[state] = normalized
    return True


def binomial_check(P: PathMeasure) -> bool:
    """True iff every positive-mass history branches into at most two points."""
    for t in range(1, P.n + 1):
        for kernel in _kernels_by_prefix(P, t).values():
            if len(kernel) > 2:
                return False
    return True


def left_curtain_one_step(mu: DiscreteMeasure, nu: DiscreteMeasure) -> PathMeasure:
    """The one-step Left-Curtain coupling of mu and nu.

    Atoms of mu are processed left to right, each one mapped to the shadow of
    itself in what remains of nu; the prefix images of the result are exactly
    the shadows of the prefix restrictions.
    """
    require_convex_order(mu, nu)
    return _left_curtain(mu, nu)


def _left_curtain(mu: DiscreteMeasure, nu: DiscreteMeasure) -> PathMeasure:
    """`left_curtain_one_step` for a pair already known to be in convex order."""
    residual = nu
    rows = []
    for x, q in mu.atoms:
        piece = shadow_atom(q, x, residual)
        rows.extend(((x, y), w) for y, w in piece.shadow)
        residual = piece.residual
    return PathMeasure(1, rows)


def _feasible_martingale_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> PathMeasure:
    """First basic feasible point of the martingale transport polytope."""
    from .lpsolver import EXACT, _skeleton

    paths = [(x, y) for x in mu.support for y in nu.support]
    skeleton = _skeleton({0: mu, 1: nu}, 1, paths)
    return skeleton.solve(skeleton.program(lambda path: 0, EXACT)).optimizer


def _one_step_kernels(coupling: PathMeasure) -> Dict[Fraction, Tuple[Tuple[Fraction, Fraction], ...]]:
    kernels: Dict[Fraction, List[Tuple[Fraction, Fraction]]] = {}
    starts = coupling.marginal(0)
    for (x, y), w in coupling.paths:
        kernels.setdefault(x, []).append((y, w / starts.weight_at(x)))
    return {x: tuple(rows) for x, rows in kernels.items()}


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
    order and are coupled one step at a time by the chosen policy.  The
    bivariate projections onto dates (0, t) are uniquely determined; only the
    full joint depends on the policy.
    """
    marginals = list(marginals)
    if len(marginals) < 2:
        raise ValueError("need at least two marginals")
    require_convex_order_chain(marginals)
    n = len(marginals) - 1
    mu0 = marginals[0]

    residuals = list(marginals[1:])
    increments: List[List[DiscreteMeasure]] = []
    for x, q in mu0.atoms:
        delta = DiscreteMeasure.dirac(x, q)
        chain = [delta]
        for t in range(n):
            piece = shadow(chain[-1], residuals[t])
            residuals[t] = piece.residual
            chain.append(piece.shadow)
        increments.append(chain)

    estimate = 0
    for chain in increments:
        count = 1
        for theta in chain[1:]:
            count *= max(len(theta), 1)
        estimate += count
    if estimate > max_paths:
        raise PathCountExceeded(
            f"worst-case path count {estimate} exceeds the cap {max_paths}"
        )

    all_rows: List[Tuple[Path, Fraction]] = []
    for (x, q), chain in zip(mu0.atoms, increments):
        partial: List[Tuple[Path, Fraction]] = [((x,), q)]
        for t in range(1, n + 1):
            lower, upper = chain[t - 1], chain[t]
            if not convex_order_leq(lower, upper):
                raise AssertionError("increment pair fails convex order")
            if policy is KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS:
                step = _left_curtain(lower, upper)
            else:
                step = _feasible_martingale_coupling(lower, upper)
            kernels = _one_step_kernels(step)
            extended = []
            for coords, w in partial:
                for y, prob in kernels[coords[-1]]:
                    extended.append((coords + (y,), w * prob))
            partial = extended
            if len(partial) > max_paths:
                raise PathCountExceeded(f"path count exceeds the cap {max_paths}")
        all_rows.extend(partial)
    return PathMeasure(n, all_rows)


@dataclass(frozen=True)
class PrefixImageRecord:
    """Comparison of one prefix image with its obstructed shadow."""

    prefix: Fraction
    t: int
    matches: bool
    image: DiscreteMeasure
    expected: DiscreteMeasure


def verify_left_monotone(
    P: PathMeasure, marginals: Sequence[DiscreteMeasure]
) -> Tuple[bool, List[PrefixImageRecord]]:
    """Check the defining prefix-image property of left-monotone transports.

    Verifies the marginals and the martingale property first (raising
    MarginalMismatch / NotMartingale), then compares, for every atom prefix
    of the first marginal and every date, the image measure with the
    obstructed shadow of the prefix, walked once along the chain: the one at
    date t is the shadow of the one at date t - 1 in marginal t.
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

    records = []
    all_match = True
    for a in marginals[0].support:
        restricted = P.restrict_first(a)
        expected = marginals[0].restrict(Interval.at_most(a))
        for t in range(1, P.n + 1):
            image = restricted.marginal(t)
            expected = shadow(expected, marginals[t]).shadow
            matches = image == expected
            all_match = all_match and matches
            records.append(PrefixImageRecord(a, t, matches, image, expected))
    return all_match, records


def strong_order_holds(marginals: Sequence[DiscreteMeasure]) -> bool:
    """Whether plain prefix shadows increase in convex order along the dates.

    Exactly when this holds do the bivariate projections of a left-monotone
    transport reduce to one-step Left-Curtain couplings.
    """
    marginals = list(marginals)
    require_convex_order_chain(marginals)
    if len(marginals) <= 2:
        return True
    mu0 = marginals[0]
    for i in range(1, len(mu0) + 1):
        prefix = DiscreteMeasure(mu0.atoms[:i])
        shadows = [shadow(prefix, nu).shadow for nu in marginals[1:]]
        if not all(convex_order_leq(a, b) for a, b in zip(shadows, shadows[1:])):
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
