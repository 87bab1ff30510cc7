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
has barycenter x, that is when q*delta_x <=_pc nu.  A failed take names the
one condition that fails: q is more than the mass left, or x is right of
the barycenter of the rightmost mass q, or left of that of the leftmost.
A flat stretch of m keeps the window inside one atom at x, so every a that
solves m(a) = q*x gives the same shadow.

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
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Sequence, Tuple

from .measure import DiscreteMeasure, NotInPositiveConvexOrder, RationalLike, rat


class ShadowResult(NamedTuple):
    """A shadow together with what is left of the target."""

    shadow: DiscreteMeasure
    residual: DiscreteMeasure


def _take_failure(q_num: int, q_den: int, x: Fraction, condition: str) -> NotInPositiveConvexOrder:
    return NotInPositiveConvexOrder(f"{Fraction(q_num, q_den)}*d[{x}] is not <=_pc the target: {condition}")


class _Residual:
    """What is left of a target measure, consumed in place by `take_ints`.

    The atoms are kept sorted, in Python integers.  `held` lists the index
    in the target (`support`) of each atom still held.  Positions share one
    scale D = `d`, the lcm of their denominators: x is held as X = D*x in
    `xs`.  Each weight is held in lowest terms as `nums[i] / dens[i]`, and
    `den_count` counts the held denominators, so their lcm E = `e` is the
    one reduced weight scale: every weight w reads as the integer W = E*w =
    nums[i] * (E // dens[i]), and gcd(E, all W) == 1.  A take works over E,
    grown first by the factor that q's denominator lacks and, when its last
    stretch's step is not whole, by the factor that makes it whole, so
    nothing is rounded; x's denominator grows D the same way.  Only the
    atoms of the window and those it slides across are read and rewritten:
    the weights a take keeps go back in lowest terms and E is recomputed
    from `den_count`, so no take rescales the atoms it does not touch.  A
    take returns target indices and integer weights over its scale;
    Fractions are made only for the pieces that `take` returns and in
    `measure`.
    """

    def __init__(self, nu: DiscreteMeasure):
        self.support = nu.support
        self.held = list(range(len(self.support)))
        self.d = lcm(*{x.denominator for x in self.support})
        self.xs = [x.numerator * (self.d // x.denominator) for x in self.support]
        self.nums = [w.numerator for _, w in nu.atoms]
        self.dens = [w.denominator for _, w in nu.atoms]
        self.den_count = dict(Counter(self.dens))
        self.e = lcm(*self.den_count)

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(zip(map(self.support.__getitem__, self.held), map(Fraction, self.nums, self.dens)))

    def take(self, x: Fraction, q: Fraction) -> List[Tuple[Fraction, Fraction]]:
        """The shadow of q*delta_x (q >= 0) as sorted (y, w) pieces, subtracted here."""
        pieces, e = self.take_ints(x, q.numerator, q.denominator)
        return [(self.support[i], Fraction(w, e)) for i, w in pieces]

    def take_ints(self, x: Fraction, q_num: int, q_den: int) -> Tuple[List[Tuple[int, int]], int]:
        """The shadow of q*delta_x, q = q_num / q_den >= 0, subtracted here:
        its sorted pieces as (index in the target, W) with W/E the weight,
        and this take's weight scale E.

        The window starts with the q mass from x rightward, or with the
        rightmost q mass when less lies right of x, so its first moment m is
        at least q*x unless the order fails.  Both cuts then slide left
        together; on each stretch between atom boundaries m falls at the
        rate (right cut's position - left cut's position), and the stretch
        that reaches q*x is solved exactly.  Raises NotInPositiveConvexOrder
        naming q*d[x] and which condition of the module notes fails.
        """
        if q_num == 0:
            return [], 1
        if self.d % x.denominator:
            factor = x.denominator // gcd(self.d, x.denominator)
            self.d *= factor
            self.xs[:] = [y * factor for y in self.xs]
        xs, nums, dens = self.xs, self.nums, self.dens
        e = lcm(self.e, q_den)  # this take's weight scale
        x_int = x.numerator * (self.d // x.denominator)
        q_int = q_num * (e // q_den)
        # The window holds atoms l..r: all of atom l but its lowest `out_l`,
        # all of atom r but its highest `out_r` (both cuts in one atom if l == r);
        # the moments below are D*E times the rational ones.
        l = r = bisect_left(xs, x_int)
        filled = 0
        while r < len(xs) and filled < q_int:
            filled += nums[r] * (e // dens[r])
            r += 1
        if filled >= q_int:
            r -= 1
            out_l, out_r = 0, filled - q_int
        else:
            while l > 0 and filled < q_int:
                l -= 1
                filled += nums[l] * (e // dens[l])
            if filled < q_int:
                raise _take_failure(q_num, q_den, x, "q is more than the mass left")
            r = len(xs) - 1
            out_l, out_r = filled - q_int, 0
        moment = sum(xs[i] * nums[i] * (e // dens[i]) for i in range(l, r + 1))
        moment -= out_l * xs[l] + out_r * xs[r]
        target = q_int * x_int
        if moment < target:
            raise _take_failure(q_num, q_den, x, "x is right of the barycenter of the rightmost mass q")
        while moment != target:
            if out_l == 0:
                if l == 0:
                    raise _take_failure(q_num, q_den, x, "x is left of the barycenter of the leftmost mass q")
                l -= 1
                out_l = nums[l] * (e // dens[l])
                continue
            inside_r = nums[r] * (e // dens[r]) - out_r - (out_l if l == r else 0)
            if inside_r == 0:
                r -= 1
                out_r = 0
                continue
            rate = xs[r] - xs[l]
            step = min(out_l, inside_r)
            if moment - step * rate <= target:
                excess = moment - target
                if excess % rate:  # make the step whole: E grows by what rate lacks
                    factor = rate // gcd(excess, rate)
                    e *= factor
                    out_l, out_r, excess, target = out_l * factor, out_r * factor, excess * factor, target * factor
                step = excess // rate
                moment = target
            else:
                moment -= step * rate
            out_l -= step
            out_r += step
        window = [nums[i] * (e // dens[i]) for i in range(l, r + 1)]
        if l == r:
            window[0] -= out_l + out_r
            kept = [(l, out_l + out_r)]
        else:
            window[0] -= out_l
            window[-1] -= out_r
            kept = [(l, out_l), (r, out_r)]
        held = self.held
        pieces = [(i, w) for i, w in zip(held[l : r + 1], window) if w]
        kept = [(i, w // g, e // g) for i, w in kept if w for g in (gcd(w, e),)]  # w/e in lowest terms
        count = self.den_count
        for den in dens[l : r + 1]:
            if count[den] == 1:
                del count[den]
            else:
                count[den] -= 1
        for _, _, den in kept:
            count[den] = count.get(den, 0) + 1
        self.e = lcm(*count)
        held[l : r + 1] = [held[i] for i, _, _ in kept]
        xs[l : r + 1] = [xs[i] for i, _, _ in kept]
        nums[l : r + 1] = [n for _, n, _ in kept]
        dens[l : r + 1] = [den for _, _, den in kept]
        return pieces, e


def shadow_atom(q: RationalLike, x: RationalLike, nu: DiscreteMeasure) -> ShadowResult:
    """Shadow of the atom q*delta_x in nu.

    The shadow of a one-atom measure: a restriction of nu to an interval
    around x, with fractional atoms allowed at the two endpoints.
    """
    q, x = rat(q), rat(x)
    if q < 0:
        raise NotInPositiveConvexOrder(f"atom mass {q} is negative")
    return shadow(DiscreteMeasure.dirac(x, q), nu)


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
    terminal measure; with a single target this is the plain shadow.  A fold
    that fails names its date, the 1-based position of its target in chain.
    """
    theta = mu0_part
    for t, nu in enumerate(chain, start=1):
        try:
            theta = shadow(theta, nu).shadow
        except NotInPositiveConvexOrder as exc:
            raise NotInPositiveConvexOrder(f"date {t}: {exc}") from None
    return theta
