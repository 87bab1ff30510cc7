"""Seeded instance generator owned by the benchmark.

Every instance is a tuple of marginals, each a sorted tuple of
(position, weight) Fraction pairs, drawn from `random.Random` keyed by the
workload, the seed and the instance index, so the same seed always gives
the same inputs.  Convex order holds by construction (mean-preserving
spreads) or is checked here with put potentials; nothing from the library
or from its tests is used.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence, Tuple

from oracle import Atoms, put_potential


def rng_for(*key) -> random.Random:
    return random.Random(":".join(str(part) for part in key))


def _merge(pairs) -> Atoms:
    acc = {}
    for x, w in pairs:
        acc[x] = acc.get(x, Fraction(0)) + w
    return tuple(sorted(acc.items()))


def spread(rng: random.Random, atoms: Atoms, stay: float) -> Atoms:
    """A successor in convex order: every atom stays or splits in two."""
    out = []
    for x, w in atoms:
        if rng.random() < stay:
            out.append((x, w))
            continue
        down = Fraction(rng.randint(1, 2), rng.choice([1, 2]))
        up = Fraction(rng.randint(1, 2), rng.choice([1, 2]))
        lam = down / (down + up)
        out += [(x + up, w * lam), (x - down, w * (1 - lam))]
    return _merge(out)


def grid_chain(rng: random.Random, k: int) -> Tuple[Atoms, ...]:
    """k equal-weight atoms on [0, 1) followed by two mean-preserving spreads.

    Each spread is redrawn until its support has the typical size for k,
    round(1.4 k) then round(1.9 k) atoms, so that instances of one size
    class cost about the same and a run's medians settle quickly.
    """
    chain = [tuple((Fraction(j, k), Fraction(1, k)) for j in range(k))]
    for target in (round(1.4 * k), round(1.9 * k)):
        while True:
            successor = spread(rng, chain[-1], 0.5)
            if len(successor) == target:
                chain.append(successor)
                break
    return tuple(chain)


def small_chain(rng: random.Random, shape: Sequence[int]) -> Tuple[Atoms, ...]:
    """Two random atoms and mean-preserving spreads, redrawn until the
    support sizes are exactly `shape` (which starts with 2)."""
    while True:
        xs = rng.sample(range(-3, 4), 2)
        chain = [_merge((Fraction(x), Fraction(rng.randint(1, 4), rng.randint(1, 4))) for x in xs)]
        while len(chain) < len(shape) and len(chain[-1]) == shape[len(chain) - 1]:
            chain.append(spread(rng, chain[-1], 0.35))
        if tuple(map(len, chain)) == tuple(shape):
            return tuple(chain)


def gap_pattern(mu: Atoms, nu: Atoms) -> str:
    """'+' where the put-potential gap P_nu - P_mu is positive, '0' where it
    is zero, at each point of the union of the supports, left to right.
    Its runs of '+' are the irreducible components of mu <=_c nu."""
    grid = sorted({x for x, _ in mu} | {x for x, _ in nu})
    return "".join("+" if a > b else "0" for a, b in zip(put_potential(nu, grid), put_potential(mu, grid)))


def _irreducible(mu: Atoms, nu: Atoms) -> bool:
    """mu <=_c nu with one irreducible component whose domain is everything.

    Equal mass and barycenter, and a put-potential gap that is strictly
    positive strictly inside the hull of nu, which also holds mu's support.
    """
    if sum(w for _, w in mu) != sum(w for _, w in nu):
        return False
    if sum(w * x for x, w in mu) != sum(w * x for x, w in nu):
        return False
    lo, hi = nu[0][0], nu[-1][0]
    if not lo < mu[0][0] <= mu[-1][0] < hi:
        return False
    grid = [g for g in sorted({x for x, _ in mu} | {x for x, _ in nu}) if lo < g < hi]
    return all(a > b for a, b in zip(put_potential(nu, grid), put_potential(mu, grid)))


def irreducible_chain(rng: random.Random, sizes: Sequence[int], max_weight: int) -> Tuple[Atoms, ...]:
    """Marginals with the given support sizes, each step one irreducible component.

    The effective domain is then the full product of the supports.  With
    max_weight 1 all weights are equal; larger values draw integer weights
    up to it and normalize, which lengthens the denominators.
    """
    chain: List[Atoms] = []
    for t, size in enumerate(sizes):
        span = 2 + 3 * t
        for _ in range(10_000):
            xs = rng.sample(range(-2 * span, 2 * span + 1), size)
            ws = [rng.randint(1, max_weight) for _ in xs]
            total = sum(ws)
            mu = _merge((Fraction(x), Fraction(w, total)) for x, w in zip(xs, ws))
            if chain:
                shift = sum(w * x for x, w in chain[0]) - sum(w * x for x, w in mu)
                mu = tuple((x + shift, w) for x, w in mu)
                if not _irreducible(chain[-1], mu):
                    continue
            chain.append(mu)
            break
        else:
            raise RuntimeError(f"no irreducible step to {size} atoms")
    return tuple(chain)
