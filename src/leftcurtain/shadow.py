"""Shadows and obstructed shadows of discrete measures.

The shadow of mu in nu is the convex-order least element of
{theta : mu <=_c theta <= nu}.  It is read off put potentials: the residual
nu - shadow has potential conv(P_nu - P_mu), the largest convex minorant of
the potential gap (Beiglboeck-Hobson-Norgilas, "The potential of the shadow
measure", 2022), so one put-gap sweep and one lower-hull pass over the
merged support give the shadow of any measure or atom.  The same pass
decides mu <=_pc nu: the order holds exactly when the hull's end slopes lie
in [0, nu.mass - mu.mass].  Obstructed shadows iterate the construction
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
    rat,
    subtract,
)


@dataclass(frozen=True)
class ShadowResult:
    """A shadow together with what is left of the target."""

    shadow: DiscreteMeasure
    residual: DiscreteMeasure


def _shadow_from_potentials(
    mu: DiscreteMeasure, nu: DiscreteMeasure, message: str
) -> ShadowResult:
    """Shadow of mu in nu from P_shadow = P_nu - conv(P_nu - P_mu).

    Off the merged grid g_0 < ... < g_N the gap G = P_nu - P_mu is 0 on the
    left and affine with slope excess = nu.mass - mu.mass on the right, so
    the lower hull H of its grid values, with end slopes 0 and excess, is
    its convex minorant: the put potential of the residual, whose atoms are
    the slope jumps at the hull vertices.  Slopes are compared by
    cross-multiplication, exact since the grid is strictly increasing.

    The same hull decides mu <=_pc nu, and NotInPositiveConvexOrder(message)
    is raised before any measure is built unless it holds.  With drift =
    nu.first_moment - mu.first_moment, G(g_0) = 0 (no atom lies below g_0)
    and G(g_N) = excess * g_N - drift (none lies above g_N).  By put-call
    parity the call gap is G(b) - (excess * b - drift), so for excess >= 0
    the order holds exactly when G >= L = max(0, excess * b - drift) on the
    grid.  Each affine piece of L is below G on the grid exactly when it is
    below H on [g_0, g_N], so this is L <= H.  H meets the first piece at
    g_0 and the second at g_N, and a convex function stays above an affine
    one it meets at its left (right) end exactly when its first slope is
    at least (last slope at most) the affine one.  So the order holds
    exactly when excess >= 0, H's first slope is >= 0 and its last slope is
    <= excess, that is when the residual's two end atoms are nonnegative:
    its interior atoms are positive, since H is strictly convex at interior
    vertices, and its atoms sum to excess, so nonnegative end atoms already
    force excess >= 0.
    """
    grid, gap = _put_gap(mu, nu)
    excess = nu.mass - mu.mass
    hull: List[Tuple[Fraction, Fraction]] = []
    for x, y in zip(grid, gap):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (x - x1) < (y - y1) * (x1 - x0):
                break
            hull.pop()
        hull.append((x, y))
    slopes = [Fraction(0)]
    slopes += [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    slopes.append(excess)
    jumps = [b - a for a, b in zip(slopes, slopes[1:])]
    if jumps[0] < 0 or jumps[-1] < 0:
        raise NotInPositiveConvexOrder(message)
    residual = DiscreteMeasure((x, w) for (x, _), w in zip(hull, jumps))
    return ShadowResult(subtract(nu, residual), residual)


def shadow_atom(q: RationalLike, x: RationalLike, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of the atom q*delta_x in nu.

    The shadow of a one-atom measure: a restriction of nu to an interval
    around x, with fractional atoms allowed at the two endpoints.
    """
    q, x = rat(q), rat(x)
    if q < 0:
        raise NotInPositiveConvexOrder(f"atom mass {q} is negative")
    message = f"{q}*d[{x}] is not <=_pc the target"
    return _shadow_from_potentials(DiscreteMeasure.dirac(x, q), nu, message)


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of mu in nu.

    Raises NotInPositiveConvexOrder when mu is not <=_pc nu.
    """
    return _shadow_from_potentials(mu, nu, "source measure is not <=_pc the target")


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
