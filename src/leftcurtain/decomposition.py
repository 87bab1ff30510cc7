"""Irreducible decomposition and polar structure of martingale transports.

A one-step problem mu -> nu splits into a diagonal part (where the potentials
agree and any martingale transport is the identity) and irreducible components
(I_k, J_k), the maximal open intervals where u_mu < u_nu together with their
target windows.  The components lie between consecutive zeros of the put gap
P_nu - P_mu on the grid of both supports, read off the sweep of the order
check.  Chains of per-step components are the only sets a multistep
martingale transport can charge; everything outside, or through a point of
zero marginal mass, is polar.  When the intermediate marginals are free, the
chain is the decomposition of (mu_0, mu_n) taken at every step.
`decompose_chain` decomposes every step of a chain from the sweeps of its
order check, and `_effective_paths` enumerates either domain on given
grids for the LPs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import pairwise
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .measure import (
    DiscreteMeasure,
    Interval,
    NotInConvexOrder,
    RationalLike,
    _convex_failure,
    _Sweep,
    _Value,
    rat,
    require_convex_order_chain,
    subtract,
)


class IrreducibleDomain(NamedTuple):
    """One irreducible component of a one-step problem.

    I is the open interval {u_mu < u_nu}; J is its closure, as both
    endpoints of I carry an atom of the component's target nu_k.
    """

    index: int
    I: Interval
    mu_k: DiscreteMeasure
    nu_k: DiscreteMeasure

    @property
    def J(self) -> Interval:
        return Interval.closed(self.I.lo, self.I.hi)

    def to_json(self) -> dict:
        return {
            "k": self.index,
            "I": self.I.to_json(),
            "J": self.J.to_json(),
            "mu": self.mu_k.to_json(),
            "nu": self.nu_k.to_json(),
        }


class StepDecomposition(_Value):
    """Diagonal part plus irreducible components of one transport step."""

    __slots__ = ("diagonal", "components")
    diagonal: DiscreteMeasure
    components: Tuple[IrreducibleDomain, ...]

    def __init__(self, diagonal: DiscreteMeasure, components: Tuple[IrreducibleDomain, ...]):
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "components", components)

    def component_of_point(self, x: RationalLike) -> Optional[IrreducibleDomain]:
        """The component whose I holds x, found by bisection: the I's are disjoint, open and increasing."""
        x = rat(x)
        i = bisect_left(self.components, x, key=lambda comp: comp.I.lo)
        return self.components[i - 1] if i and x < self.components[i - 1].I.hi else None

    def pair_component(self, x: Fraction, y: Fraction) -> Optional[int]:
        """Index k with (x, y) in V_k, the diagonal being k = 0; None if polar."""
        comp = self.component_of_point(x)
        if comp is not None:
            return comp.index if comp.I.lo <= rat(y) <= comp.I.hi else None
        return 0 if y == x else None

    def diagonal_intervals(self) -> Tuple[Interval, ...]:
        """The maximal intervals making up the diagonal domain I_0: the ends
        -inf, lo_1, hi_1, ..., hi_K, +inf paired up, closed at each finite end."""
        ends = [None, *(end for comp in self.components for end in (comp.I.lo, comp.I.hi)), None]
        return tuple(Interval(lo, hi, lo is not None, hi is not None) for lo, hi in zip(ends[::2], ends[1::2]))

    def to_json(self) -> dict:
        return {
            "diagonal": self.diagonal.to_json(),
            "diagonal_intervals": [iv.to_json() for iv in self.diagonal_intervals()],
            "components": [comp.to_json() for comp in self.components],
        }


MultistepComponent = Tuple[int, ...]


def decompose_step(mu: DiscreteMeasure, nu: DiscreteMeasure) -> StepDecomposition:
    """Decompose a one-step problem per the irreducible-component theorem.

    The components are found by exact sign analysis of the piecewise-linear
    difference u_nu - u_mu = 2 (P_nu - P_mu) of the potentials between
    consecutive breakpoints; rational slopes make every zero-crossing exact,
    so there is no tolerance anywhere.  Raises NotInConvexOrder naming the
    first condition of the order that fails (`measure._convex_failure`).
    """
    failure, sweep = _convex_failure(mu, nu)
    if failure:
        raise NotInConvexOrder(f"not in convex order: {failure}")
    return _decomposed(mu, nu, sweep)


def decompose_chain(marginals: Sequence[DiscreteMeasure]) -> List[StepDecomposition]:
    """The decomposition of each step of a convex-order chain, in date order.

    Each pair's sweep is made once, by `require_convex_order_chain`, which
    raises NotInConvexOrder naming the first pair that fails.
    """
    sweeps = require_convex_order_chain(marginals)
    return [_decomposed(mu, nu, sweep) for (mu, nu), sweep in zip(pairwise(marginals), sweeps)]


def _decomposed(mu: DiscreteMeasure, nu: DiscreteMeasure, sweep: _Sweep) -> StepDecomposition:
    """The decomposition of mu <=_c nu read off the sweep of nu - mu."""
    grid, values, _, _, d, e = sweep
    # The difference vanishes at both ends of the support hull (equal mass
    # and barycenter) and is linear between grid points, so {u_mu < u_nu} is
    # the union of the open stretches between consecutive zeros of the gap
    # with a grid point inside; between adjacent zeros the gap is 0.  The
    # sweep's values are the difference times a positive integer, so their
    # signs and zeros are exact.
    if grid and (values[0] or values[-1]):
        raise AssertionError("potential difference positive at the support edge")
    spans = [(a, b) for a, b in pairwise(i for i, v in enumerate(values) if not v) if b > a + 1]
    mu_at, nu_at = mu.support, nu.support
    components: List[IrreducibleDomain] = []
    for k, (a, b) in enumerate(spans, start=1):
        lo, hi = Fraction(grid[a], d), Fraction(grid[b], d)
        mu_k = DiscreteMeasure(mu.atoms[bisect_right(mu_at, lo):bisect_left(mu_at, hi)])
        nu_inside = nu.atoms[bisect_right(nu_at, lo):bisect_left(nu_at, hi)]
        # The puts are D*E*(P_nu - P_mu) at K = D*k, so d(puts) / (E*dK) right of lo
        # is (nu - mu)((-inf, lo]), nu_k's share of nu's atom at lo (nu = mu on the
        # diagonal, earlier components balance); at hi, -(nu - mu)((-inf, hi)).
        frac_lo = Fraction(values[a + 1] - values[a], e * (grid[a + 1] - grid[a]))
        frac_hi = Fraction(values[b - 1] - values[b], e * (grid[b] - grid[b - 1]))
        if frac_lo > nu.weight_at(lo) or frac_hi > nu.weight_at(hi):
            raise AssertionError("component endpoint assignment out of bounds")
        nu_k = DiscreteMeasure([*nu_inside, (lo, frac_lo), (hi, frac_hi)])
        components.append(IrreducibleDomain(k, Interval.open(lo, hi), mu_k, nu_k))

    diagonal = subtract(mu, DiscreteMeasure([a for c in components for a in c.mu_k]))
    nu_diagonal = subtract(nu, DiscreteMeasure([a for c in components for a in c.nu_k]))
    if diagonal != nu_diagonal:
        raise AssertionError("diagonal parts of mu and nu disagree")
    return StepDecomposition(diagonal, tuple(components))


def effective_domain_contains(
    decomps: Sequence[StepDecomposition], path: Sequence[Fraction]
) -> Optional[MultistepComponent]:
    """The component index chain of a path, or None if outside every chain.

    decomps must hold one StepDecomposition per step t = 1..n; membership at
    step t means (x_{t-1}, x_t) lies in V_{k_t} of that step, the diagonal
    (k = 0) forcing x_t = x_{t-1}.
    """
    if len(path) != len(decomps) + 1:
        raise ValueError("path length must be number of steps plus one")
    indices = []
    for t, decomp in enumerate(decomps, start=1):
        k = decomp.pair_component(path[t - 1], path[t])
        if k is None:
            return None
        indices.append(k)
    return tuple(indices)


def _effective_paths(
    grids: Sequence[Sequence[Fraction]], decomps: Sequence[StepDecomposition]
) -> List[Tuple[Fraction, ...]]:
    """The paths through the grids (one per date) in the effective domain of
    decomps, in lexicographic order when the grids are sorted.  A prefix
    leaving the domain is dropped before it is extended."""
    paths: List[Tuple[Fraction, ...]] = [(x,) for x in grids[0]]
    for grid, decomp in zip(grids[1:], decomps):
        paths = [p + (y,) for p in paths for y in grid if decomp.pair_component(p[-1], y) is not None]
    return paths


class PolarVerdict(NamedTuple):
    path: Tuple[Fraction, ...]
    polar: bool
    reason: str
    component: Optional[MultistepComponent] = None


def polar_test(
    marginals: Sequence[DiscreteMeasure],
    paths: Sequence[Sequence[RationalLike]],
) -> List[PolarVerdict]:
    """Flag each path as polar or chargeable for the given marginal chain.

    A path is polar iff some coordinate has zero marginal mass or the path
    lies in no irreducible component chain.  A finite set is polar iff all
    its paths are.
    """
    decomps = decompose_chain(marginals)
    verdicts = []
    for raw in paths:
        path = tuple(rat(x) for x in raw)
        if len(path) != len(marginals):
            raise ValueError("path length must be the number of marginals")
        nullset = next(
            (t for t, x in enumerate(path) if marginals[t].weight_at(x) == 0), None
        )
        if nullset is not None:
            verdicts.append(
                PolarVerdict(path, True, f"marginal {nullset} has no mass at {path[nullset]}")
            )
            continue
        component = effective_domain_contains(decomps, path)
        if component is None:
            verdicts.append(PolarVerdict(path, True, "outside the effective domain"))
        else:
            verdicts.append(PolarVerdict(path, False, "chargeable", component))
    return verdicts


def free_polar_test(
    mu0: DiscreteMeasure,
    mun: DiscreteMeasure,
    n: int,
    paths: Sequence[Sequence[RationalLike]],
) -> List[PolarVerdict]:
    """Polar verdicts for the free-intermediate-marginal problem.

    A path is polar iff mu0 gives no mass to its start, or mun none to its
    end, or it leaves the effective domain of n steps that each decompose
    as (mu0, mun) does.  That domain is the paper's n-step components: from
    I_k a step stays in J_k; an endpoint p of J_k lies in no I_j (the
    potential gap vanishes there), so the diagonal then holds the path at p;
    and a path starting in I_0 is constant.  Hence I_k^n x J_k, the pinned
    I_k^t x {p}^(n-t+1) and the constant paths in I_0, and nothing else.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    decomps = [decompose_step(mu0, mun)] * n
    verdicts = []
    for raw in paths:
        path = tuple(rat(x) for x in raw)
        if len(path) != n + 1:
            raise ValueError("path length must be n + 1")
        if mu0.weight_at(path[0]) == 0:
            verdicts.append(PolarVerdict(path, True, "first marginal has no mass at start"))
        elif mun.weight_at(path[-1]) == 0:
            verdicts.append(PolarVerdict(path, True, "last marginal has no mass at end"))
        elif effective_domain_contains(decomps, path) is not None:
            verdicts.append(PolarVerdict(path, False, "chargeable"))
        else:
            verdicts.append(PolarVerdict(path, True, "outside every n-step component"))
    return verdicts
