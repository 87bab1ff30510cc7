"""Acceptance suite: one test per criterion, run with `pytest -s` to see the
per-criterion PASS lines.  All equality assertions are exact (rational
arithmetic); the only tolerances are the stated 1e-9 bounds in the float-mode
criterion and the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction as F

from leftcurtain import (
    DiscreteMeasure,
    binomial_check,
    KernelPolicy,
    PathMeasure,
    SupportSet,
    call_value,
    chain_min_call,
    contact_set,
    extract_dual,
    free_monotone_transport,
    is_left_monotone_set,
    left_curtain_one_step,
    left_monotone_multistep,
    left_tail_put_reward,
    markov_check,
    obstructed_shadow,
    restrict,
    solve_free,
    solve_primal,
    strong_order_holds,
    tanh_sm_reward,
    verify_left_monotone,
)
from leftcurtain.measure import Interval

from conftest import measure, mean_preserving_spread, random_marginal_chain, total_variation


def _ok(label):
    print(f"PASS {label}")


def test_c01_rigid_three_marginal_reproduction():
    marginals = [
        DiscreteMeasure.dirac(0),
        measure([(-1, F(1, 2)), (1, F(1, 2))]),
        measure([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))]),
    ]
    start = time.monotonic()
    P = left_monotone_multistep(marginals)
    elapsed = time.monotonic() - start
    expected = PathMeasure(
        2,
        [
            ((0, -1, -2), F(1, 4)),
            ((0, -1, 0), F(1, 4)),
            ((0, 1, 0), F(1, 4)),
            ((0, 1, 2), F(1, 4)),
        ],
    )
    assert P == expected
    assert elapsed < 1.0
    _ok(f"criterion 1: rigid three-marginal instance reproduced exactly in {elapsed:.3f}s")


def test_c02_projection_differs_from_one_step_curtain():
    marginals = [
        measure([(-1, F(1, 2)), (1, F(1, 2))]),
        measure([(-2, F(1, 2)), (2, F(1, 2))]),
        measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))]),
    ]
    P = left_monotone_multistep(marginals)
    s = F(1, 16)
    assert P.project((0, 2)) == PathMeasure(
        1,
        [
            ((-1, -4), 3 * s),
            ((-1, 0), F(1, 4)),
            ((-1, 4), s),
            ((1, -4), s),
            ((1, 0), F(1, 4)),
            ((1, 4), 3 * s),
        ],
    )
    e = F(1, 8)
    assert left_curtain_one_step(marginals[0], marginals[2]) == PathMeasure(
        1,
        [((-1, -4), e), ((-1, 0), 3 * e), ((1, -4), e), ((1, 0), e), ((1, 4), F(1, 4))],
    )
    assert strong_order_holds(marginals) is False
    _ok("criterion 2: obstructed projection and one-step curtain both exact; order property fails")


def test_c03_non_markovian_construction():
    marginals = [
        measure([(0, F(1, 2)), (1, F(1, 2))]),
        measure([(0, F(3, 4)), (2, F(1, 4))]),
        measure([(-1, F(1, 8)), (0, F(1, 2)), (1, F(1, 8)), (2, F(1, 4))]),
    ]
    P = left_monotone_multistep(marginals)
    assert P == PathMeasure(
        2,
        [
            ((0, 0, 0), F(1, 2)),
            ((1, 0, -1), F(1, 8)),
            ((1, 0, 1), F(1, 8)),
            ((1, 2, 2), F(1, 4)),
        ],
    )
    assert markov_check(P) is False
    ok, witness = is_left_monotone_set(SupportSet.of(P))
    assert ok, witness
    _ok("criterion 3: non-Markovian transport exact; support left-monotone")


def test_c04_nonuniqueness_with_matching_projections():
    marginals = [
        DiscreteMeasure.dirac(0),
        measure([(-1, F(1, 2)), (1, F(1, 2))]),
        measure([(-2, F(3, 8)), (0, F(1, 4)), (2, F(3, 8))]),
    ]
    p_left = PathMeasure(
        2,
        [((0, -1, -2), F(1, 4)), ((0, -1, 0), F(1, 4)), ((0, 1, -2), F(1, 8)), ((0, 1, 2), F(3, 8))],
    )
    p_right = PathMeasure(
        2,
        [((0, -1, -2), F(3, 8)), ((0, -1, 2), F(1, 8)), ((0, 1, 0), F(1, 4)), ((0, 1, 2), F(1, 4))],
    )
    mixture = PathMeasure.mixture([(p_left, F(1, 2)), (p_right, F(1, 2))])
    for P in (p_left, p_right, mixture):
        ok, _ = verify_left_monotone(P, marginals)
        assert ok
    assert p_left != p_right
    assert p_left.project((0, 1)) == p_right.project((0, 1))
    assert p_left.project((0, 2)) == p_right.project((0, 2))
    _ok("criterion 4: two distinct transports and their mixture verify; projections coincide")


def _random_product_reward(rng, n, marginals):
    supports = [list(mu.support) for mu in marginals]

    def pick_strike(t):
        return rng.choice(supports[t]) + F(rng.randint(-1, 1), 2)

    factors = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["const", "indicator", "call", "put", "abs"])
        if kind == "const":
            c = F(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 2))
            factors.append(lambda p, c=c: c)
        elif kind == "indicator":
            a = pick_strike(0)
            factors.append(lambda p, a=a: F(1) if p[0] <= a else F(0))
        else:
            t = rng.randint(1, n)
            b = pick_strike(t)
            if kind == "call":
                factors.append(lambda p, t=t, b=b: max(p[t] - b, F(0)))
            elif kind == "put":
                factors.append(lambda p, t=t, b=b: max(b - p[t], F(0)))
            else:
                factors.append(lambda p, t=t, b=b: abs(p[t] - b))

    def reward(path):
        out = F(1)
        for f in factors:
            out *= f(path)
        return out

    return reward


def test_c05_duality_on_random_instances():
    rng = random.Random(5)
    start = time.monotonic()
    for _ in range(100):
        n = rng.choice([2, 3])
        marginals = random_marginal_chain(rng, n, max_support=5)
        reward = _random_product_reward(rng, n, marginals)
        solution = solve_primal(marginals, reward)
        certificate = extract_dual(solution.program, solution)
        assert certificate.objective == solution.value
        for hedge, value in zip(certificate.hedges(), solution.program.reward_values):
            assert hedge >= value
        touching = contact_set(certificate, reward)
        assert set(solution.optimizer.support) <= set(touching.points)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(f"criterion 5: 100 duality instances exact (gap zero, superhedge, contact set) in {elapsed:.1f}s")


def test_c06_shadow_least_element_certification():
    rng = random.Random(6)
    start = time.monotonic()
    for _ in range(100):
        t = rng.choice([1, 2, 2])
        chain = random_marginal_chain(rng, t, max_support=5)
        prefix = rng.choice(chain[0].support)
        part = restrict(chain[0], Interval.at_most(prefix))
        targets = chain[1:]
        result = obstructed_shadow(part, targets)
        for b in sorted(set(result.support) | set(targets[-1].support)):
            assert call_value(result, b) == chain_min_call(part, targets, t, b)
    elapsed = time.monotonic() - start
    _ok(f"criterion 6: 100 obstructed shadows match the chain-LP minima exactly in {elapsed:.1f}s")


def test_c07_construction_attains_probe_family():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([2, 2, 3])
        marginals = random_marginal_chain(rng, n, max_support=4)
        P = left_monotone_multistep(marginals)
        for a in marginals[0].support:
            for t in range(1, n + 1):
                for b in marginals[t].support:
                    reward = left_tail_put_reward(a, t, b)
                    solution = solve_primal(marginals, reward)
                    assert solution.value == P.expectation(reward)
    _ok("criterion 7: constructed transport attains every probe-family optimum on 50 instances")


def test_c08_smooth_spence_mirrlees_rewards():
    named = [
        measure([(-1, F(1, 2)), (1, F(1, 2))]),
        measure([(-2, F(1, 2)), (2, F(1, 2))]),
        measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))]),
    ]
    rng = random.Random(8)
    instances = [named]
    for _ in range(10):
        instances.append(random_marginal_chain(rng, 2, max_support=4))
    for marginals in instances:
        P = left_monotone_multistep(marginals)
        for t in range(1, len(marginals)):
            reward = tanh_sm_reward(t)
            solution = solve_primal(marginals, reward, mode="float")
            attained = sum(float(w) * reward(p) for p, w in P.paths)
            assert abs(solution.value - attained) <= 1e-9
    _ok("criterion 8: smooth Spence-Mirrlees optima attained within 1e-9 on 11 instances")


def test_c09_free_marginal_transport():
    rng = random.Random(9)
    for trial in range(12):
        if trial == 0:
            mu0 = measure([(-1, F(1, 2)), (1, F(1, 2))])
            mun = measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
        else:
            chain = random_marginal_chain(rng, 2, max_support=5)
            mu0, mun = chain[0], chain[2]
        n = rng.choice([2, 3])
        P = free_monotone_transport(mu0, mun, n)
        for t in range(n):
            assert P.marginal(t) == mu0
        assert all(p[: n] == (p[0],) * n for p, _ in P.paths)
        assert P.project((n - 1, n)) == left_curtain_one_step(mu0, mun)
        grid = sorted(set(mu0.support) | set(mun.support))
        for a in mu0.support:
            for t in range(1, n + 1):
                for b in grid:
                    reward = left_tail_put_reward(a, t, b)
                    solution = solve_free(mu0, mun, n, reward)
                    assert solution.value == P.expectation(reward)
    _ok("criterion 9: free-marginal transport has the degenerate shape and attains the free optima")


def test_c10_fine_discretization_policy_invariance():
    rng = random.Random(10)
    mu0 = DiscreteMeasure((F(k, 40), F(1, 40)) for k in range(40))
    mu1 = mean_preserving_spread(rng, mu0, stay_prob=0.5)
    mu2 = mean_preserving_spread(rng, mu1, stay_prob=0.5)
    marginals = [mu0, mu1, mu2]
    P_curtain = left_monotone_multistep(marginals, KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS)
    P_lp = left_monotone_multistep(marginals, KernelPolicy.LP_FEASIBLE)
    for t in (1, 2):
        assert P_curtain.project((0, t)) == P_lp.project((0, t))
        assert P_curtain.marginal(t) == marginals[t]
    gap = total_variation(P_curtain, P_lp)
    _ok(
        "criterion 10: policies agree on all bivariate projections exactly; "
        f"full-joint total-variation gap = {float(gap):.6f} (reported, no threshold); "
        f"binomial kernels: {binomial_check(P_curtain)} (diagnostic)"
    )
