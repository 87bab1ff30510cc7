import copy
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from leftcurtain import (
    DiscreteMeasure,
    DualCertificate,
    Infeasible,
    NotInConvexOrder,
    build_program,
    call_value,
    chain_min_call,
    contact_set,
    decompose_step,
    extract_dual,
    feasible_transport,
    free_monotone_transport,
    left_monotone_multistep,
    left_tail_put_reward,
    obstructed_shadow,
    parse_reward,
    shadow,
    solve_free,
    solve_primal,
    tanh_sm_reward,
)
from leftcurtain import lpsolver, simplex
from leftcurtain.simplex import solve_lp

from conftest import measure, oracle_solve_lp, random_marginal_chain, random_pc_pair


def brute_force_optimum(program):
    """Enumerate basic feasible solutions of the equality system exactly.

    Row-reduces the constraint matrix over the rationals, then tries every
    column subset of size equal to the rank; complete for the tiny instances
    it is applied to.
    """
    rows, rhs = program.lp_rows()
    matrix = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    n_cols = len(program.paths)
    # rational row echelon
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        piv = matrix[r][c]
        matrix[r] = [v / piv for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, len(matrix)):
        assert matrix[i][-1] == 0, "inconsistent system"
    reduced = matrix[:r]
    rank = r
    best = None
    for subset in itertools.combinations(range(n_cols), rank):
        square = [[reduced[i][j] for j in subset] for i in range(rank)]
        target = [reduced[i][-1] for i in range(rank)]
        solution = _solve_square(square, target)
        if solution is None or any(v < 0 for v in solution):
            continue
        full = [F(0)] * n_cols
        for j, v in zip(subset, solution):
            full[j] = v
        value = sum(
            (program.reward_values[j] * full[j] for j in range(n_cols)), F(0)
        )
        if best is None or value > best:
            best = value
    return best


def _solve_square(matrix, rhs):
    n = len(matrix)
    work = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        piv = work[c][c]
        work[c] = [v / piv for v in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [work[i][n] for i in range(n)]


class TestSolvePrimal:
    def test_unique_transport_pins_every_reward(self, rigid_marginals):
        P = left_monotone_multistep(rigid_marginals)
        for reward in (
            lambda p: p[2] * p[2],
            lambda p: abs(p[1] - p[2]),
            lambda p: p[0] - 2 * p[1] + p[2] * p[2] * p[2],
        ):
            sol = solve_primal(rigid_marginals, reward)
            assert sol.value == P.expectation(reward)
            assert sol.optimizer == P

    def test_zero_reward(self, rigid_marginals):
        sol = solve_primal(rigid_marginals, lambda p: 0)
        assert sol.value == 0

    def test_probe_reward_value(self, curtain_gap_marginals):
        reward = left_tail_put_reward(-1, 2, 0)
        sol = solve_primal(curtain_gap_marginals, reward)
        assert sol.value == F(-1, 4)

    def test_against_brute_force_vertices(self):
        rng = random.Random(109)
        solved = 0
        while solved < 12:
            chain = random_marginal_chain(rng, 2, max_support=3)
            reward = lambda p: p[0] * p[2] * p[2] - p[1]
            program = build_program(chain, reward)
            if len(program.paths) > 9:
                continue
            sol = solve_primal(chain, reward)
            assert sol.value == brute_force_optimum(program)
            solved += 1

    def test_optimizer_is_a_martingale_transport(self):
        rng = random.Random(113)
        from leftcurtain import is_martingale

        for _ in range(10):
            chain = random_marginal_chain(rng, 2, max_support=4)
            sol = solve_primal(chain, lambda p: abs(p[0] - p[2]))
            for t, mu in enumerate(chain):
                assert sol.optimizer.marginal(t) == mu
            assert is_martingale(sol.optimizer)[0]

    def test_exact_mode_rejects_float_rewards(self, rigid_marginals):
        with pytest.raises(TypeError):
            solve_primal(rigid_marginals, lambda p: 0.5)


class TestDuality:
    def test_zero_certificate_is_admissible(self, rigid_marginals):
        program = build_program(rigid_marginals, lambda p: 0)
        zero_cert = DualCertificate({}, {}, F(0), program)
        assert all(zero_cert.superhedge(p) == 0 for p in program.paths)
        full = contact_set(zero_cert, lambda p: 0)
        assert full.points == frozenset(program.paths)

    def test_dual_matches_primal_on_random_instances(self):
        rng = random.Random(127)
        for _ in range(30):
            chain = random_marginal_chain(rng, rng.choice([2, 3]), max_support=4)
            reward = lambda p: p[0] * p[-1] * p[-1]
            sol = solve_primal(chain, reward)
            cert = extract_dual(sol.program, sol)
            assert cert.objective == sol.value
            for path in sol.program.paths:
                assert cert.superhedge(path) >= reward(path)
            touching = contact_set(cert, reward)
            assert set(sol.optimizer.support) <= set(touching.points)

    def test_contact_set_contains_construction_support(self, curtain_gap_marginals):
        reward = left_tail_put_reward(-1, 2, 0)
        sol = solve_primal(curtain_gap_marginals, reward)
        cert = extract_dual(sol.program, sol)
        P = left_monotone_multistep(curtain_gap_marginals)
        assert set(P.support) <= set(contact_set(cert, reward).points)

    def test_second_optimizer_stays_in_contact_set(self, nonunique_family):
        marginals, p_left, p_right = nonunique_family
        reward = lambda p: p[1] * p[2] * p[2]
        sol = solve_primal(marginals, reward)
        cert = extract_dual(sol.program, sol)
        touching = set(contact_set(cert, reward).points)
        assert set(sol.optimizer.support) <= touching
        # pin the value, swing a second objective to reach another optimizer
        program = sol.program
        rows, rhs = program.lp_rows()
        rows.append(list(program.reward_values))
        rhs.append(sol.exact_value)
        tie_break = [F(hash(p) % 7) for p in program.paths]
        second = solve_lp(tie_break, rows, rhs)
        second_support = {
            program.paths[k] for k, v in enumerate(second.x) if v != 0
        }
        assert second_support <= touching

    def test_non_optimal_transport_leaves_contact_set(self, nonunique_family):
        marginals, p_left, p_right = nonunique_family
        # rewards the right-handed joint; the left-handed one is suboptimal
        reward = lambda p: p[1] * p[2] * p[2]
        if p_left.expectation(reward) == p_right.expectation(reward):
            pytest.skip("degenerate choice")
        sol = solve_primal(marginals, reward)
        cert = extract_dual(sol.program, sol)
        touching = set(contact_set(cert, reward).points)
        worse = min((p_left, p_right), key=lambda P: P.expectation(reward))
        assert not set(worse.support) <= touching


class TestChainMinCall:
    def test_single_link_matches_shadow(self):
        rng = random.Random(131)
        for _ in range(15):
            mu, nu = random_pc_pair(rng, max_atoms=4)
            s = shadow(mu, nu).shadow
            for b in set(s.support) | set(nu.support):
                assert chain_min_call(mu, [nu], 1, b) == call_value(s, b)

    def test_low_strike_is_affine(self):
        mu = DiscreteMeasure.dirac(1, F(1, 2))
        chain = [measure([(0, F(1, 2)), (2, F(1, 2))])]
        b = F(-10)
        assert chain_min_call(mu, chain, 1, b) == mu.mass * (mu.barycenter - b)

    def test_two_link_example(self, curtain_gap_marginals):
        _, mu1, mu2 = curtain_gap_marginals
        part = DiscreteMeasure.dirac(-1, F(1, 2))
        assert chain_min_call(part, [mu1, mu2], 2, 0) == F(1, 4)

    def test_infeasible_cast_set(self):
        with pytest.raises(Infeasible):
            chain_min_call(DiscreteMeasure.dirac(0, 2), [DiscreteMeasure.dirac(0)], 1, 0)

    def test_matches_obstructed_shadow_calls(self):
        rng = random.Random(137)
        for _ in range(10):
            chain = random_marginal_chain(rng, 2, max_support=5)
            part = DiscreteMeasure(list(chain[0])[:1])
            result = obstructed_shadow(part, chain[1:])
            for b in set(result.support) | set(chain[2].support):
                assert chain_min_call(part, chain[1:], 2, b) == call_value(result, b)


class TestSolveFree:
    def test_last_coordinate_rewards_reduce_to_one_step(self, curtain_gap_marginals):
        mu0, _, mu2 = curtain_gap_marginals
        reward = lambda p: p[0] * p[-1] * p[-1]
        free = solve_free(mu0, mu2, 3, reward)
        one_step = solve_primal([mu0, mu2], lambda p: p[0] * p[1] * p[1])
        assert free.value == one_step.value

    def test_zero_reward(self, curtain_gap_marginals):
        mu0, _, mu2 = curtain_gap_marginals
        assert solve_free(mu0, mu2, 2, lambda p: 0).value == 0

    def test_monotone_transport_attains_probe_rewards(self, curtain_gap_marginals):
        mu0, _, mu2 = curtain_gap_marginals
        P = free_monotone_transport(mu0, mu2, 2)
        for a in mu0.support:
            for t in (1, 2):
                for b in sorted(set(mu0.support) | set(mu2.support)):
                    reward = left_tail_put_reward(a, t, b)
                    sol = solve_free(mu0, mu2, 2, reward)
                    assert sol.value == P.expectation(reward)

    def test_certificate_superhedges(self, curtain_gap_marginals):
        mu0, _, mu2 = curtain_gap_marginals
        reward = left_tail_put_reward(-1, 1, 0)
        sol = solve_free(mu0, mu2, 2, reward)
        assert sol.certificate.objective == sol.exact_value
        for path in sol.certificate.program.paths:
            assert sol.certificate.superhedge(path) >= reward(path)


class TestFloatMode:
    def test_agrees_with_exact_on_rational_rewards(self, curtain_gap_marginals):
        reward = left_tail_put_reward(-1, 2, 0)
        exact = solve_primal(curtain_gap_marginals, reward)
        loose = solve_primal(curtain_gap_marginals, lambda p: float(reward(p)), mode="float")
        assert abs(loose.value - float(exact.value)) <= 1e-9 * max(1.0, abs(float(exact.value)))

    def test_tanh_reward_attained_by_construction(self, curtain_gap_marginals):
        P = left_monotone_multistep(curtain_gap_marginals)
        for t in (1, 2):
            reward = tanh_sm_reward(t)
            sol = solve_primal(curtain_gap_marginals, reward, mode="float")
            attained = sum(float(w) * reward(p) for p, w in P.paths)
            assert abs(sol.value - attained) <= 1e-9


class TestFeasibleTransport:
    def test_first_basic_solution_is_valid(self):
        rng = random.Random(139)
        from leftcurtain import is_martingale

        for _ in range(10):
            chain = random_marginal_chain(rng, 2, max_support=4)
            P = feasible_transport(chain)
            assert is_martingale(P)[0]
            for t, mu in enumerate(chain):
                assert P.marginal(t) == mu


class TestRewardLanguage:
    def test_product_parsing(self):
        spec = parse_reward("indicator(t=0, <=-1) * -1 * call(2, 0)")
        assert spec.is_rational and spec.max_index == 2
        assert spec((F(-1), F(0), F(3))) == -3
        assert spec((F(0), F(0), F(3))) == 0

    def test_put_abs_and_reverse_indicator(self):
        assert parse_reward("put(1, 2)")((F(0), F(-1))) == 3
        assert parse_reward("abs(1, 2)")((F(0), F(5))) == 3
        assert parse_reward("indicator(t=0, >=1)")((F(2),)) == 1

    def test_constants_and_fractions(self):
        spec = parse_reward("3/4 * call(1, 0)")
        assert spec((F(0), F(2))) == F(3, 2)

    def test_tanh_factor_marks_irrational(self):
        spec = parse_reward("tanh_sm(2)")
        assert not spec.is_rational and spec.max_index == 2
        value = spec((F(1), F(0), F(1)))
        assert isinstance(value, float)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_reward("call(1)")
        with pytest.raises(ValueError):
            parse_reward("frobnicate(2, 3)")


def irreducible_chain(rng, sizes):
    """Marginals with the given support sizes, each step one irreducible
    component holding every atom, so the effective domain is the full product."""
    chain = []
    for t, size in enumerate(sizes):
        while True:
            xs = rng.sample(range(-3 * t - 2, 3 * t + 3), size)
            ws = [rng.randint(1, 4) for _ in xs]
            mu = DiscreteMeasure((F(x), F(w, sum(ws))) for x, w in zip(xs, ws))
            if not chain:
                break
            shift = chain[0].barycenter - mu.barycenter
            mu = DiscreteMeasure((x + shift, w) for x, w in mu)
            try:
                step = decompose_step(chain[-1], mu)
            except NotInConvexOrder:
                continue
            if step.diagonal.is_zero and len(step.components) == 1 and step.components[0].nu_k == mu:
                break
        chain.append(mu)
    return chain


def lpsolver_caches():
    """Every skeleton cache of `lpsolver`, found by its `cache_info`."""
    return [f for f in vars(lpsolver).values() if hasattr(f, "cache_info")]


def clear_lpsolver_caches():
    for cache in lpsolver_caches():
        cache.cache_clear()


def thawed(value):
    """`value` with every tuple turned into a list, which `simplex.phase1`
    does not remember: a solve of it runs from scratch."""
    return [thawed(v) for v in value] if isinstance(value, tuple) else value


class TestAgainstDenseOracle:
    def test_program_lps_solve_alike(self, monkeypatch, phase1_runs):
        """Every LP that `lpsolver` solves, cache hits included, gives the same
        result, pivot for pivot, as a solve from scratch and as the dense
        tableau of `conftest.oracle_solve_lp`."""
        lps = []

        def recording_solve_lp(*args, **kwargs):
            result = solve_lp(*args, **kwargs)
            lps.append((args, kwargs, result))
            return result

        clear_lpsolver_caches()
        monkeypatch.setattr(lpsolver, "solve_lp", recording_solve_lp)
        rng = random.Random(149)
        for sizes in [(2, 4, 6), (2, 4, 6), (2, 3, 5)]:
            chain = irreducible_chain(rng, sizes)
            reward = left_tail_put_reward(chain[0].support[0], 2, chain[2].support[2])
            assert len(solve_primal(chain, reward).program.paths) == math.prod(sizes)
            solve_free(chain[0], chain[2], 2, reward)
            part = DiscreteMeasure(list(chain[0])[:1])
            for b in chain[2].support[1:3]:
                chain_min_call(part, chain[1:], 2, b)
        # Per chain: the primal, the free problem and two chain minima (with
        # '<=' rows), which share their rows and so one phase 1.
        assert len(lps) == 12
        assert len(phase1_runs) == 9
        for args, kwargs, result in lps:
            cold = solve_lp(*map(thawed, args), **kwargs)
            assert result == cold == oracle_solve_lp(*args, **kwargs)


class TestSkeletonCache:
    def test_probe_families_run_phase1_once_per_polytope(self, phase1_runs, curtain_gap_marginals):
        clear_lpsolver_caches()
        mu0, mu1, mu2 = chain = curtain_gap_marginals
        grid = sorted(set(mu0.support) | set(mu2.support))
        probes = [(a, t) for a in mu0.support for t in (1, 2)]
        solutions = []
        for a, t in probes:
            for b in chain[t].support:
                solutions.append(solve_primal(chain, left_tail_put_reward(a, t, b)))
                extract_dual(solutions[-1].program, solutions[-1])
        assert len(phase1_runs) == 1
        for a, t in probes:
            for b in grid:
                solve_free(mu0, mu2, 2, left_tail_put_reward(a, t, b))
        assert len(phase1_runs) == 2
        for a, t in probes:
            part = DiscreteMeasure([(x, w) for x, w in mu0 if x <= a])
            for b in chain[t].support:
                chain_min_call(part, chain[1:], t, b)
        assert len(phase1_runs) == 2 + len(probes)
        for sol in solutions:
            rows, rhs = sol.program.lp_rows()
            assert sol.lp == solve_lp(list(sol.program.reward_values), rows, rhs)

    def test_failures_are_not_cached(self, phase1_runs):
        mu, nu = DiscreteMeasure.dirac(0), measure([(-1, F(1, 2)), (1, F(1, 2))])
        reward = lambda p: p[-1]
        failing = [
            (NotInConvexOrder, lambda: solve_primal([nu, mu], reward)),
            (NotInConvexOrder, lambda: solve_free(nu, mu, 2, reward)),
            (ValueError, lambda: solve_primal([], reward)),
            (ValueError, lambda: solve_free(mu, nu, 0, reward)),
            (Infeasible, lambda: solve_free(mu, nu, 2, reward, grid=[5])),
            (Infeasible, lambda: chain_min_call(DiscreteMeasure.dirac(0, 2), [mu], 1, 0)),
        ]
        for kind, call in failing:
            clear_lpsolver_caches()
            runs = len(phase1_runs)
            with pytest.raises(kind) as first:
                call()
            with pytest.raises(kind) as again:
                call()
            assert again.value.args == first.value.args
            if kind is Infeasible:
                # The rows are cached, but phase 1 on them runs every time.
                assert len(phase1_runs) == runs + 2
            else:
                assert all(cache.cache_info().currsize == 0 for cache in lpsolver_caches())
        # A float n fails as it always did, also once the int's entry is cached.
        solve_free(mu, nu, 2, reward)
        with pytest.raises(TypeError):
            solve_free(mu, nu, 2.0, reward)

    def test_returned_objects_do_not_reach_the_cache(self, curtain_gap_marginals):
        mu0, _, mu2 = chain = curtain_gap_marginals
        reward = left_tail_put_reward(-1, 2, 0)
        clear_lpsolver_caches()
        first = solve_primal(chain, reward)
        free = solve_free(mu0, mu2, 2, reward)
        expected = copy.deepcopy((first.lp, first.program, free.certificate.program))
        for program in (first.program, free.certificate.program, build_program(chain, reward)):
            program.marginals[0] = DiscreteMeasure.dirac(7)
            program.marginals.clear()
        first.lp.x[0] += 1
        first.lp.duals[0] += 1
        again = solve_primal(chain, reward)
        free_again = solve_free(mu0, mu2, 2, reward)
        assert (again.lp, again.program, free_again.certificate.program) == expected
        extract_dual(again.program, again)

    def test_caches_stay_within_their_bound(self):
        rng = random.Random(151)
        for _ in range(6):
            chain = random_marginal_chain(rng, 2, max_support=3)
            reward = lambda p: p[0] * p[-1]
            solve_primal(chain, reward)
            solve_free(chain[0], chain[2], 2, reward)
            for b in chain[2].support:
                chain_min_call(DiscreteMeasure(list(chain[0])[:1]), chain[1:], 2, b)
            for cache in lpsolver_caches():
                info = cache.cache_info()
                assert info.maxsize == lpsolver._CACHE_SIZE and info.currsize <= info.maxsize
            assert len(simplex._remembered) <= simplex._REMEMBERED
        assert len(lpsolver_caches()) == 3


class TestMalformedProblems:
    def test_unknown_mode_is_rejected(self, curtain_gap_marginals):
        mu0, _, mu2 = chain = curtain_gap_marginals
        reward = lambda p: 1
        solve_primal(chain, reward)
        solve_free(mu0, mu2, 2, reward)
        # The caches now hold both problems; the mode is checked before them.
        for call in (
            lambda: solve_primal(chain, reward, mode="flaot"),
            lambda: build_program(chain, reward, mode="flaot"),
            lambda: solve_free(mu0, mu2, 2, reward, mode="flaot"),
        ):
            with pytest.raises(ValueError, match="mode must be 'exact' or 'float', not 'flaot'"):
                call()

    @pytest.mark.parametrize("grid, named", [([5], r"\[5\]"), ([], r"\[\]")])
    def test_grid_without_transport_is_infeasible(self, grid, named):
        mu, nu = DiscreteMeasure.dirac(0), measure([(-1, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(Infeasible, match="lives on the grid " + named):
            solve_free(mu, nu, 2, lambda p: p[-1], grid=grid)

    def test_no_marginals(self):
        with pytest.raises(ValueError, match="need at least one marginal"):
            solve_primal([], lambda p: 0)
