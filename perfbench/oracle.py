"""Reference-free exact checks that share no code with the library.

Measures are sorted tuples of (position, weight) Fraction pairs, the layout
of `DiscreteMeasure.atoms`; path measures are iterables of (path, weight).

Shadows come from put potentials, P(k) = sum of w * (k - x)^+ over atoms:
the shadow of mu in nu has potential P_nu - conv(P_nu - P_mu), where conv is
the largest convex minorant (Beiglboeck-Hobson-Norgilas, "The potential of
the shadow measure", 2022).  One hull pass replaces the library's interval
search, so a defect in either shows as a mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Atoms = Tuple[Tuple[Fraction, Fraction], ...]
ZERO = Fraction(0)


def put_potential(atoms: Sequence[Tuple[Fraction, Fraction]], grid: Sequence[Fraction]) -> List[Fraction]:
    out, i, mass, moment = [], 0, ZERO, ZERO
    for g in grid:
        while i < len(atoms) and atoms[i][0] < g:
            mass += atoms[i][1]
            moment += atoms[i][1] * atoms[i][0]
            i += 1
        out.append(mass * g - moment)
    return out


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def shadow(mu: Atoms, nu: Atoms) -> Atoms:
    """The shadow of mu in nu; raises ValueError unless mu <=_pc nu."""
    if not mu:
        return ()
    grid = sorted({x for x, _ in mu} | {x for x, _ in nu})
    p_nu = put_potential(nu, grid)
    gap = [a - b for a, b in zip(p_nu, put_potential(mu, grid))]
    excess = sum(w for _, w in nu) - sum(w for _, w in mu)
    if excess < 0 or min(gap) < 0:
        raise ValueError("source is not <=_pc the target")
    hull: List[Tuple[Fraction, Fraction]] = []
    for point in zip(grid, gap):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], point) <= 0:
            hull.pop()
        hull.append(point)
    # right of the grid the gap grows with slope `excess`: drop hull vertices
    # that such a ray from an earlier vertex passes below
    while len(hull) >= 2 and (hull[-1][1] - hull[-2][1]) > excess * (hull[-1][0] - hull[-2][0]):
        hull.pop()
    minorant, h = [], 0
    for g in grid:
        while h + 1 < len(hull) and hull[h + 1][0] <= g:
            h += 1
        (x0, v0) = hull[h]
        if h + 1 < len(hull):
            (x1, v1) = hull[h + 1]
            minorant.append(v0 + (v1 - v0) * (g - x0) / (x1 - x0))
        else:
            minorant.append(v0 + excess * (g - x0))
    values = [a - b for a, b in zip(p_nu, minorant)]
    slopes = [ZERO] + [
        (values[i + 1] - values[i]) / (grid[i + 1] - grid[i]) for i in range(len(grid) - 1)
    ] + [sum(w for _, w in mu)]
    return tuple(
        (g, slopes[i + 1] - slopes[i]) for i, g in enumerate(grid) if slopes[i + 1] != slopes[i]
    )


def obstructed_shadow(part: Atoms, chain: Sequence[Atoms]) -> Atoms:
    theta = part
    for nu in chain:
        theta = shadow(theta, nu)
    return theta


def call_value(atoms: Atoms, b: Fraction) -> Fraction:
    return sum((w * (x - b) for x, w in atoms if x > b), ZERO)


def restrict_at_most(atoms: Atoms, a: Fraction) -> Atoms:
    return tuple((x, w) for x, w in atoms if x <= a)


def convex_leq(mu: Atoms, nu: Atoms) -> bool:
    """mu <=_c nu: equal mass and mean, and ordered put potentials."""
    if sum(w for _, w in mu) != sum(w for _, w in nu):
        return False
    if sum(w * x for x, w in mu) != sum(w * x for x, w in nu):
        return False
    grid = sorted({x for x, _ in mu} | {x for x, _ in nu})
    return all(a <= b for a, b in zip(put_potential(mu, grid), put_potential(nu, grid)))


def strong_order(chain: Sequence[Atoms]) -> bool:
    """Plain prefix shadows increase in convex order along the dates."""
    part: List[Tuple[Fraction, Fraction]] = []
    for atom in chain[0]:
        part.append(atom)
        shadows = [shadow(tuple(part), nu) for nu in chain[1:]]
        if not all(convex_leq(a, b) for a, b in zip(shadows, shadows[1:])):
            return False
    return True


def left_tail_put_optimum(chain: Sequence[Atoms], a: Fraction, t: int, b: Fraction) -> Fraction:
    """Optimal value of 1{x_0 <= a} * -(x_t - b)^+, attained by left-monotone transports."""
    return -call_value(obstructed_shadow(restrict_at_most(chain[0], a), chain[1 : t + 1]), b)


def free_left_tail_put_optimum(mu0: Atoms, mun: Atoms, n: int, a: Fraction, t: int, b: Fraction) -> Fraction:
    """The same optimum with free intermediate marginals.

    The monotone transport stays at x_0 until the last step, which is the
    one-step Left-Curtain coupling into mun.
    """
    part = restrict_at_most(mu0, a)
    return -call_value(shadow(part, mun) if t == n else part, b)


def marginal(paths: Iterable[Tuple[Sequence[Fraction], Fraction]], t: int) -> Atoms:
    acc: Dict[Fraction, Fraction] = {}
    for p, w in paths:
        acc[p[t]] = acc.get(p[t], ZERO) + w
    return tuple(sorted((x, w) for x, w in acc.items() if w != 0))


def is_martingale_coupling(paths, marginals: Dict[int, Atoms], n: int) -> bool:
    """Positive weights on (n+1)-paths, the pinned marginals, zero drift after every prefix."""
    paths = list(paths)
    if any(w <= 0 or len(p) != n + 1 for p, w in paths):
        return False
    if any(marginal(paths, t) != tuple(mu) for t, mu in marginals.items()):
        return False
    for t in range(1, n + 1):
        drift: Dict[tuple, Fraction] = {}
        for p, w in paths:
            drift[tuple(p[:t])] = drift.get(tuple(p[:t]), ZERO) + w * (p[t] - p[t - 1])
        if any(d != 0 for d in drift.values()):
            return False
    return True


def certifies(value: Fraction, marginals: Dict[int, Atoms], phi, H, paths, reward) -> bool:
    """A zero-gap dual certificate: sum_t mu_t(phi_t) == value and the hedge
    sum_t phi_t(x_t) + sum_t H_t(x_0..x_{t-1}) (x_t - x_{t-1}) is >= the
    reward on every given path.  phi maps dates to {point: value}, H maps
    (date, prefix) to a position; missing entries are zero."""
    objective = sum(
        (w * phi.get(t, {}).get(x, ZERO) for t, mu in marginals.items() for x, w in mu), ZERO
    )
    if objective != value:
        return False
    for p in paths:
        hedge = sum((phi.get(t, {}).get(x, ZERO) for t, x in enumerate(p)), ZERO)
        hedge += sum((H.get((t, tuple(p[:t])), ZERO) * (p[t] - p[t - 1]) for t in range(1, len(p))), ZERO)
        if hedge < reward(p):
            return False
    return True


def prefix_images_match(paths, marginals: Sequence[Atoms]) -> bool:
    """Every prefix of the first marginal is carried to its obstructed shadows.

    This pins down the (0, t) projections of a left-monotone transport, which
    are unique even where the full joint law is not.
    """
    n = len(marginals) - 1
    by_start: Dict[Fraction, List] = {}
    for p, w in paths:
        by_start.setdefault(p[0], []).append((p, w))
    images: List[Dict[Fraction, Fraction]] = [dict() for _ in range(n + 1)]
    part: List[Tuple[Fraction, Fraction]] = []
    for x, w in marginals[0]:
        part.append((x, w))
        for p, v in by_start.get(x, ()):
            for t in range(1, n + 1):
                images[t][p[t]] = images[t].get(p[t], ZERO) + v
        theta = tuple(part)
        for t in range(1, n + 1):
            theta = shadow(theta, marginals[t])
            if tuple(sorted((y, v) for y, v in images[t].items() if v != 0)) != theta:
                return False
    return True
