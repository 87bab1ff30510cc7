"""Irreducible decomposition and polar structure of martingale transports.

A one-step problem mu -> nu splits into a diagonal part (where the potentials
agree and any martingale transport is the identity) and irreducible components
(I_k, J_k), the maximal open intervals where u_mu < u_nu together with their
target windows.  Chains of per-step components are the only sets a multistep
martingale transport can charge; everything outside, or through a point of
zero marginal mass, is polar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .measure import (
    DiscreteMeasure,
    Interval,
    NotInConvexOrder,
    _convex,
    _put_sweep,
    add,
    require_convex_order,
    require_convex_order_chain,
    subtract,
)


@dataclass(frozen=True)
class IrreducibleDomain:
    """One irreducible component of a one-step problem.

    I is the open interval {u_mu < u_nu}; J adds those endpoints of I that
    carry an atom of the component's target nu_k.
    """

    index: int
    I: Interval
    J: Interval
    mu_k: DiscreteMeasure
    nu_k: DiscreteMeasure

    def to_json(self) -> dict:
        return {
            "k": self.index,
            "I": self.I.to_json(),
            "J": self.J.to_json(),
            "mu": self.mu_k.to_json(),
            "nu": self.nu_k.to_json(),
        }


@dataclass(frozen=True)
class StepDecomposition:
    """Diagonal part plus irreducible components of one transport step."""

    diagonal: DiscreteMeasure
    components: Tuple[IrreducibleDomain, ...]

    def component_of_point(self, x: Fraction) -> Optional[IrreducibleDomain]:
        for comp in self.components:
            if comp.I.contains(x):
                return comp
        return None

    def in_diagonal_domain(self, x: Fraction) -> bool:
        return self.component_of_point(x) is None

    def pair_component(self, x: Fraction, y: Fraction) -> Optional[int]:
        """Index k with (x, y) in V_k, the diagonal being k = 0; None if polar."""
        comp = self.component_of_point(x)
        if comp is not None:
            return comp.index if comp.J.contains(y) else None
        return 0 if y == x else None

    def diagonal_intervals(self) -> Tuple[Interval, ...]:
        """The maximal intervals making up the diagonal domain I_0."""
        if not self.components:
            return (Interval.real_line(),)
        pieces: List[Interval] = []
        first = self.components[0]
        pieces.append(Interval(None, first.I.lo, False, True))
        for left, right in zip(self.components, self.components[1:]):
            if left.I.hi == right.I.lo:
                pieces.append(Interval.point(left.I.hi))
            else:
                pieces.append(Interval(left.I.hi, right.I.lo, True, True))
        last = self.components[-1]
        pieces.append(Interval(last.I.hi, None, True, False))
        return tuple(pieces)

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
    so there is no tolerance anywhere.  Raises NotInConvexOrder if the pair
    is not in convex order.
    """
    sweep = _put_sweep(nu.atoms, mu.atoms)
    if not _convex(sweep):
        raise NotInConvexOrder(f"not in convex order: {mu} vs {nu}")
    grid, values, _, _, d, _ = sweep

    # The difference vanishes outside the support hull (equal mass and
    # barycenter), so {u_mu < u_nu} is a union of open intervals whose
    # endpoints are grid points: on each linear segment the difference is
    # positive somewhere iff it is positive at an endpoint.  Two consecutive
    # positive segments belong to the same component only if the difference
    # is positive at the shared grid point; an interior zero splits them.
    # The sweep's values are the difference times a positive integer, so
    # their signs and zeros are exact.
    open_intervals: List[Tuple[Fraction, Fraction]] = []
    run_start: Optional[int] = None
    for i in range(len(grid) - 1):
        if values[i] > 0 or values[i + 1] > 0:
            if run_start is None:
                run_start = i
            if values[i + 1] == 0 or i + 1 == len(grid) - 1:
                open_intervals.append((Fraction(grid[run_start], d), Fraction(grid[i + 1], d)))
                run_start = None
    if run_start is not None:
        raise AssertionError("potential difference positive at the support edge")

    components: List[IrreducibleDomain] = []
    assigned_nu = DiscreteMeasure.zero()
    for k, (lo, hi) in enumerate(open_intervals, start=1):
        interior = Interval.open(lo, hi)
        mu_k = mu.restrict(interior)
        nu_inside = nu.restrict(interior)
        # Endpoint fractions from the component's mass/barycenter equations.
        need_mass = mu_k.mass - nu_inside.mass
        need_fm = mu_k.first_moment - nu_inside.first_moment
        frac_hi = (need_fm - lo * need_mass) / (hi - lo)
        frac_lo = need_mass - frac_hi
        if frac_lo < 0 or frac_lo > nu.weight_at(lo) or frac_hi < 0 or frac_hi > nu.weight_at(hi):
            raise AssertionError("component endpoint assignment out of bounds")
        nu_k = add(
            nu_inside,
            DiscreteMeasure([(lo, frac_lo), (hi, frac_hi)]),
        )
        J = Interval(lo, hi, frac_lo > 0, frac_hi > 0)
        components.append(IrreducibleDomain(k, interior, J, mu_k, nu_k))
        assigned_nu = add(assigned_nu, nu_k)

    diagonal = subtract(mu, DiscreteMeasure([a for c in components for a in c.mu_k]))
    nu_diagonal = subtract(nu, assigned_nu)
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


@dataclass(frozen=True)
class PolarVerdict:
    path: Tuple[Fraction, ...]
    polar: bool
    reason: str
    component: Optional[MultistepComponent] = None


def polar_test(
    marginals: Sequence[DiscreteMeasure],
    paths: Sequence[Sequence[Fraction]],
) -> List[PolarVerdict]:
    """Flag each path as polar or chargeable for the given marginal chain.

    A path is polar iff some coordinate has zero marginal mass or the path
    lies in no irreducible component chain.  A finite set is polar iff all
    its paths are.
    """
    require_convex_order_chain(marginals)
    decomps = [
        decompose_step(marginals[t - 1], marginals[t]) for t in range(1, len(marginals))
    ]
    verdicts = []
    for raw in paths:
        path = tuple(Fraction(x) for x in raw)
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


@dataclass(frozen=True)
class NStepComponent:
    """One component of the free-intermediate-marginal problem.

    kind 'interior': I_k^n x J_k;  kind 'diagonal': constant paths in I_0;
    kind 'pinned': I_k^t x {p}^(n-t+1) for an endpoint atom p of J_k.
    """

    kind: str
    n: int
    k: int = 0
    I: Optional[Interval] = None
    J: Optional[Interval] = None
    pin: Optional[Fraction] = None
    pin_from: int = 0
    diagonal_intervals: Tuple[Interval, ...] = ()

    def contains(self, path: Sequence[Fraction]) -> bool:
        if len(path) != self.n + 1:
            return False
        if self.kind == "diagonal":
            x = path[0]
            return all(y == x for y in path) and any(
                iv.contains(x) for iv in self.diagonal_intervals
            )
        if self.kind == "interior":
            if self.I is None or self.J is None:
                raise ValueError("an interior component needs I and J")
            return all(self.I.contains(x) for x in path[:-1]) and self.J.contains(path[-1])
        if self.I is None or self.pin is None:
            raise ValueError("a pinned component needs I and pin")
        t = self.pin_from
        return all(self.I.contains(x) for x in path[:t]) and all(
            x == self.pin for x in path[t:]
        )

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "n": self.n, "k": self.k}
        if self.I is not None:
            out["I"] = self.I.to_json()
        if self.J is not None:
            out["J"] = self.J.to_json()
        if self.pin is not None:
            out["pin"] = str(self.pin)
            out["pin_from"] = self.pin_from
        if self.kind == "diagonal":
            out["intervals"] = [iv.to_json() for iv in self.diagonal_intervals]
        return out


def n_step_components(
    mu0: DiscreteMeasure, mun: DiscreteMeasure, n: int
) -> List[NStepComponent]:
    """All components of the n-step problem with free intermediate marginals.

    Emits the three families: products I_k^n x J_k, the diagonal inside I_0,
    and the pinned families I_k^t x {p}^(n-t+1) for endpoint atoms p of J_k.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    step = decompose_step(mu0, mun)
    out: List[NStepComponent] = []
    for comp in step.components:
        out.append(
            NStepComponent(kind="interior", n=n, k=comp.index, I=comp.I, J=comp.J)
        )
        endpoints = []
        if comp.J.lo_closed:
            endpoints.append(comp.J.lo)
        if comp.J.hi_closed:
            endpoints.append(comp.J.hi)
        for p in endpoints:
            for t in range(1, n + 1):
                out.append(
                    NStepComponent(
                        kind="pinned", n=n, k=comp.index, I=comp.I, pin=p, pin_from=t
                    )
                )
    out.append(
        NStepComponent(
            kind="diagonal", n=n, diagonal_intervals=step.diagonal_intervals()
        )
    )
    return out


def free_polar_test(
    mu0: DiscreteMeasure,
    mun: DiscreteMeasure,
    n: int,
    paths: Sequence[Sequence[Fraction]],
) -> List[PolarVerdict]:
    """Polar verdicts for the free-intermediate-marginal problem.

    A path is polar iff mu0 gives no mass to its start, or mun none to its
    end, or it lies in no n-step component.
    """
    require_convex_order(mu0, mun)
    components = n_step_components(mu0, mun, n)
    verdicts = []
    for raw in paths:
        path = tuple(Fraction(x) for x in raw)
        if len(path) != n + 1:
            raise ValueError("path length must be n + 1")
        if mu0.weight_at(path[0]) == 0:
            verdicts.append(PolarVerdict(path, True, "first marginal has no mass at start"))
        elif mun.weight_at(path[-1]) == 0:
            verdicts.append(PolarVerdict(path, True, "last marginal has no mass at end"))
        elif any(comp.contains(path) for comp in components):
            verdicts.append(PolarVerdict(path, False, "chargeable"))
        else:
            verdicts.append(PolarVerdict(path, True, "outside every n-step component"))
    return verdicts
