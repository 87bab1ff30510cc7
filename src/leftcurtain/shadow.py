"""Shadows and obstructed shadows of discrete measures.

The shadow of mu in nu is the convex-order least element of
{theta : mu <=_c theta <= nu}.  The shadow of an atom q*delta_x is nu
restricted to an interval, with partial atoms at its two ends
(Beiglboeck-Juillet, "On a problem of optimal transport under marginal
martingale constraints", Ann. Probab. 2016).  With G the quantile function
of nu on [0, nu.mass], such restrictions of mass q are the images of
Lebesgue measure on windows [a, a + q] under G, and the shadow's barycenter
x fixes a: its window's first moment m(a) = integral of G over [a, a + q]
equals q*x.

m is continuous and nondecreasing in a, with slope G(a + q) - G(a) >= 0, so
such an a exists exactly when q <= nu.mass and m(0) <= q*x <= m(nu.mass -
q).  m(0) and m(nu.mass - q) are the least and largest first moments of a
part of nu of mass q, so this holds exactly when some part of nu of mass q
has barycenter x, that is when q*delta_x <=_pc nu.  A flat stretch of m
keeps the window inside one atom at x, so every a that solves m(a) = q*x
gives the same shadow.

The shadow of a measure folds its atoms left to right through one residual
target: shadow(mu1 + mu2, nu) = shadow(mu1, nu) + shadow(mu2, nu -
shadow(mu1, nu)) whenever mu1 + mu2 <=_pc nu (shadow associativity,
Beiglboeck-Juillet 2016, Thm 4.8).  The fold also decides mu <=_pc nu: if it
holds, each partial sum is <=_pc nu and, by the same theorem, each next atom
is <=_pc the residual, so every window exists.  Conversely, if every window
exists, each atom is <=_c its window and the windows are disjoint parts of
nu, so mu is <=_c their sum, which is <= nu.  Obstructed shadows iterate
the construction through a chain of targets.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .measure import DiscreteMeasure, NotInPositiveConvexOrder, RationalLike, rat


@dataclass(frozen=True)
class ShadowResult:
    """A shadow together with what is left of the target."""

    shadow: DiscreteMeasure
    residual: DiscreteMeasure


class _Residual:
    """What is left of a target measure, consumed in place by `take`.

    Positions and weights are kept in two sorted lists with positive
    weights; a take bisects to its atom and then reads and rewrites only the
    atoms of its window and those it slides across.
    """

    def __init__(self, nu: DiscreteMeasure, message: str = "source measure is not <=_pc the target"):
        self.xs = [x for x, _ in nu.atoms]
        self.ws = [w for _, w in nu.atoms]
        self.message = message

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(zip(self.xs, self.ws))

    def take(self, x: Fraction, q: Fraction) -> List[Tuple[Fraction, Fraction]]:
        """The shadow of q*delta_x (q >= 0) as sorted (y, w) pieces, subtracted here.

        The window starts with the q mass from x rightward, or with the
        rightmost q mass when less lies right of x, so its first moment m is
        at least q*x unless the order fails.  Both cuts then slide left
        together; on each stretch between atom boundaries m falls at the
        rate (right cut's position - left cut's position), and the stretch
        that reaches q*x is solved exactly.  Raises
        NotInPositiveConvexOrder(message) when q exceeds the residual's
        mass, when the rightmost window's moment is below q*x, or when the
        left cut would pass the first atom.
        """
        if q == 0:
            return []
        xs, ws = self.xs, self.ws
        # The window holds atoms l..r: all of atom l but its lowest `out_l`,
        # all of atom r but its highest `out_r` (both cuts in one atom if l == r).
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
                raise NotInPositiveConvexOrder(self.message)
            r = len(xs) - 1
            out_l, out_r = filled - q, Fraction(0)
        moment = sum((xs[i] * ws[i] for i in range(l, r + 1)), Fraction(0))
        moment -= out_l * xs[l] + out_r * xs[r]
        target = q * x
        if moment < target:
            raise NotInPositiveConvexOrder(self.message)
        while moment != target:
            if out_l == 0:
                if l == 0:
                    raise NotInPositiveConvexOrder(self.message)
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


def shadow_atom(q: RationalLike, x: RationalLike, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of the atom q*delta_x in nu.

    The shadow of a one-atom measure: a restriction of nu to an interval
    around x, with fractional atoms allowed at the two endpoints.
    """
    q, x = rat(q), rat(x)
    if q < 0:
        raise NotInPositiveConvexOrder(f"atom mass {q} is negative")
    residual = _Residual(nu, f"{q}*d[{x}] is not <=_pc the target")
    return ShadowResult(DiscreteMeasure(residual.take(x, q)), residual.measure())


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of mu in nu: the fold of its atom shadows, left to right.

    Raises NotInPositiveConvexOrder when mu is not <=_pc nu.
    """
    residual = _Residual(nu)
    pieces = [piece for x, q in mu.atoms for piece in residual.take(x, q)]
    return ShadowResult(DiscreteMeasure(pieces), residual.measure())


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
