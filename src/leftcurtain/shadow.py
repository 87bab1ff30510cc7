"""Shadows and obstructed shadows of discrete measures.

The shadow of mu in nu is the convex-order least element of
{theta : mu <=_c theta <= nu}.  It is read off put potentials: the residual
nu - shadow has potential conv(P_nu - P_mu), the largest convex minorant of
the potential gap (Beiglboeck-Hobson-Norgilas, "The potential of the shadow
measure", 2022), so one lower-hull pass over the merged support gives the
shadow of any measure or atom.  Obstructed shadows iterate the construction
through a chain of targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .measure import (
    DiscreteMeasure,
    NotInPositiveConvexOrder,
    RationalLike,
    _put_gap,
    positive_convex_order_leq,
    rat,
    subtract,
)


@dataclass(frozen=True)
class ShadowResult:
    """A shadow together with what is left of the target."""

    shadow: DiscreteMeasure
    residual: DiscreteMeasure


def _slope(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]) -> Fraction:
    return (b[1] - a[1]) / (b[0] - a[0])


def _shadow_from_potentials(mu: DiscreteMeasure, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of mu <=_pc nu from P_shadow = P_nu - conv(P_nu - P_mu).

    The gap P_nu - P_mu is 0 left of both supports and affine with slope
    excess = nu.mass - mu.mass right of them.  The order mu <=_pc nu keeps
    the gap above 0 (puts) and above that right asymptote (calls), so its
    convex minorant is the lower hull of its grid values, with slope 0 before
    and slope excess after.  The minorant is the put potential of the
    residual, whose atoms are the slope jumps at the hull vertices.
    """
    grid, gap = _put_gap(mu, nu)
    excess = nu.mass - mu.mass
    hull: List[Tuple[Fraction, Fraction]] = []
    for point in zip(grid, gap):
        while len(hull) >= 2 and _slope(hull[-2], hull[-1]) >= _slope(hull[-1], point):
            hull.pop()
        hull.append(point)
    slopes = [Fraction(0)] + [_slope(a, b) for a, b in zip(hull, hull[1:])] + [excess]
    residual = DiscreteMeasure(
        (x, slopes[i + 1] - slopes[i]) for i, (x, _) in enumerate(hull)
    )
    return ShadowResult(subtract(nu, residual), residual)


def shadow_atom(q: RationalLike, x: RationalLike, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of the atom q*delta_x in nu.

    The shadow of a one-atom measure: a restriction of nu to an interval
    around x, with fractional atoms allowed at the two endpoints.
    """
    q, x = rat(q), rat(x)
    if q < 0:
        raise NotInPositiveConvexOrder(f"atom mass {q} is negative")
    atom = DiscreteMeasure.dirac(x, q)
    if not positive_convex_order_leq(atom, nu):
        raise NotInPositiveConvexOrder(f"{q}*d[{x}] is not <=_pc the target")
    return _shadow_from_potentials(atom, nu)


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of mu in nu.

    Raises NotInPositiveConvexOrder when mu is not <=_pc nu.
    """
    if not positive_convex_order_leq(mu, nu):
        raise NotInPositiveConvexOrder("source measure is not <=_pc the target")
    return _shadow_from_potentials(mu, nu)


def obstructed_shadow(
    mu0_part: DiscreteMeasure, chain: Sequence[DiscreteMeasure]
) -> DiscreteMeasure:
    """Obstructed shadow of mu0_part through the chain of targets.

    Iterates the plain shadow through chain[0], chain[1], ... and returns the
    terminal measure; with a single target this is the plain shadow.
    """
    theta = mu0_part
    for nu in chain:
        theta = shadow(theta, nu).shadow
    return theta
