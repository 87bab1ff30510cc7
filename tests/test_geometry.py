import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import geometry, simplex
from leftcurtain import (
    CrossingWitness,
    DegeneracyWitness,
    DiscreteMeasure,
    KernelPolicy,
    PathMeasure,
    SupportSet,
    decompose_step,
    find_improving_competitor,
    is_left_monotone_set,
    is_nondegenerate_set,
    left_curtain_one_step,
    left_monotone_multistep,
    left_tail_put_reward,
    solve_primal,
)

from conftest import (
    Unhashable,
    grid_chain,
    irreducible_chain,
    measure,
    oracle_branches,
    oracle_first_crossing,
    oracle_first_degeneracy,
    oracle_scan_left_monotone_set,
    oracle_scan_nondegenerate_set,
    random_marginal_chain,
)


@st.composite
def point_lists(draw):
    """(n, points) with n in {1, 2, 3}: starts in -1..1 and later values in
    -2..2, so equal starts, shared histories and values at a branch's ends
    are common."""
    n = draw(st.integers(1, 3))
    point = st.tuples(st.integers(-1, 1), *[st.integers(-2, 2)] * n)
    return n, draw(st.lists(point, min_size=1, max_size=12))


class TestSupportSet:
    def test_rejects_float_coordinates(self):
        with pytest.raises(TypeError, match="not a rational"):
            SupportSet(1, [(0.1, F(1, 2))])
        assert SupportSet(1, [("1/10", 0)]).points == ((F(1, 10), F(0)),)

    @pytest.mark.parametrize("n", [-1, True, 1.0, "1"])
    def test_rejects_a_step_count_that_is_not_a_nonnegative_int(self, n):
        with pytest.raises(ValueError, match=f"^step count must be a nonnegative integer, got {n!r}$"):
            SupportSet(n, [(0, 1)])
        with pytest.raises(ValueError, match="^step count must be a nonnegative integer"):
            PathMeasure(n, [((0, 1), 1)])

    def test_rejects_a_point_with_the_wrong_coordinate_count(self):
        with pytest.raises(ValueError, match=r"^path \(1, 2, 3\) does not have 2 coordinates$"):
            SupportSet(1, [(0, 1), (1, 2, 3)])

    @settings(max_examples=200, deadline=None)
    @given(point_lists(), st.data())
    def test_every_listing_of_a_set_is_one_sorted_tuple(self, drawn, data):
        """Shuffled, duplicated and respelled (int, str or Fraction) listings
        of one set are `==` and hash-equal, hold its sorted distinct points
        and read the branches of the frozenset oracle."""
        n, points = drawn
        extra = data.draw(st.lists(st.sampled_from(points), max_size=6))
        listed = data.draw(st.permutations(points + extra))
        spell = st.sampled_from([int, str, F])
        again = SupportSet(n, [tuple(data.draw(spell)(c) for c in p) for p in listed])
        gamma = SupportSet(n, points)
        assert again == gamma and hash(again) == hash(gamma)
        assert gamma.points == tuple(sorted(set(tuple(map(F, p)) for p in points)))
        for t in range(n + 1):
            assert gamma.branches(t) == tuple(oracle_branches(again, t).items())

    def test_branches_read_sorted_histories_and_values(self):
        gamma = SupportSet(2, [(1, 0, 2), (0, 1, 1), (1, 0, -2), (0, -1, 0), (1, 0, 2), (0, 1, 3)])
        assert gamma.branches(1) == (((0,), [-1, 1]), ((1,), [0]))
        assert gamma.branches(2) == (
            ((0, -1), [0]), ((0, 1), [1, 3]), ((1, 0), [-2, 2])
        )

    @settings(max_examples=100, deadline=None)
    @given(point_lists(), st.lists(st.integers(1, 4), min_size=12, max_size=12))
    def test_of_a_coupling_is_its_support(self, drawn, weights):
        n, points = drawn
        P = PathMeasure(n, zip(points, weights))
        gamma = SupportSet.of(P)
        assert gamma == SupportSet(P.n, P.support) and gamma.points == P.support

    def test_of_the_grid_coupling_reads_its_support_without_a_second_path_measure(self, monkeypatch):
        P = left_monotone_multistep(grid_chain(random.Random(80), 80))
        expected = SupportSet(P.n, P.support)
        monkeypatch.setattr(geometry, "PathMeasure", None)
        gamma = SupportSet.of(P)
        assert gamma == expected and gamma.points == P.support and gamma.n == 2


class TestScanOrder:
    """Both scans read histories and values in increasing order, so equal
    sets give equal witnesses however their points were listed."""

    @settings(max_examples=300, deadline=None)
    @given(point_lists(), st.data())
    def test_shuffled_and_duplicated_points_give_equal_scans(self, drawn, data):
        n, points = drawn
        extra = data.draw(st.lists(st.sampled_from(points), max_size=6))
        gamma = SupportSet(n, points)
        again = SupportSet(n, data.draw(st.permutations(points + extra)))
        assert again == gamma
        crossing, degeneracy = is_left_monotone_set(gamma), is_nondegenerate_set(gamma)
        assert is_left_monotone_set(again) == crossing
        assert is_nondegenerate_set(again) == degeneracy
        assert crossing == oracle_first_crossing(gamma)
        assert degeneracy == oracle_first_degeneracy(gamma)
        assert crossing[0] == oracle_scan_left_monotone_set(again)[0]
        assert degeneracy[0] == oracle_scan_nondegenerate_set(again)[0]

    def test_witnesses_come_first_in_history_order(self):
        # (0,) spreads over [-2, 2]: (1,) steps only outside it or onto its
        # ends, (2,) and (3,) step inside, and (2,) has the least value there
        gamma = SupportSet(1, [(3, 0), (1, -3), (2, 1), (1, 3), (0, -2), (1, 2), (0, 2), (2, -1), (1, -2)])
        assert is_left_monotone_set(gamma) == (
            False, CrossingWitness(1, (F(0),), F(-2), F(2), (F(2),), F(-1))
        )
        # (2,) and (3,) only move down; (2,) comes first, with its least value
        assert is_nondegenerate_set(gamma) == (False, DegeneracyWitness(1, (F(2),), F(-1)))


class TestLeftMonotoneSet:
    def test_small_sets_trivially_pass(self):
        assert is_left_monotone_set(SupportSet(1, [(0, 1)]))[0]
        assert is_left_monotone_set(SupportSet(1, [(0, 1), (1, 5)]))[0]

    def test_forbidden_crossing_from_same_history(self):
        # two continuations from x0, a third path from the right in between
        gamma = SupportSet(1, [(0, -1), (0, 1), (1, 0)])
        ok, witness = is_left_monotone_set(gamma)
        assert not ok
        assert witness.t == 1 and witness.y_prime == 0
        assert (witness.y_minus, witness.y_plus) == (-1, 1)

    def test_forbidden_crossing_with_divergent_middles(self):
        # histories differ after time 0; the rule still binds on the starts
        gamma = SupportSet(
            2,
            [
                (-1, F(-1, 2), -2),
                (-1, F(-1, 2), 2),
                (0, F(-3, 2), 0),
            ],
        )
        ok, witness = is_left_monotone_set(gamma)
        assert not ok and witness.t == 2

    def test_constructed_transport_supports_pass(self, nonmarkov_marginals):
        P = left_monotone_multistep(nonmarkov_marginals)
        assert is_left_monotone_set(SupportSet.of(P))[0]

    def test_subsets_inherit_the_property(self):
        rng = random.Random(101)
        for _ in range(20):
            chain = random_marginal_chain(rng, 1, max_support=6)
            support = list(left_curtain_one_step(chain[0], chain[1]).support)
            assert is_left_monotone_set(SupportSet(1, support))[0]
            subset = [p for p in support if rng.random() < 0.6]
            assert is_left_monotone_set(SupportSet(1, subset or support))[0]


class TestNondegenerateSet:
    def test_unmatched_up_move(self):
        ok, witness = is_nondegenerate_set(SupportSet(1, [(0, 1)]))
        assert not ok and witness.y == 1

    def test_matched_moves(self):
        assert is_nondegenerate_set(SupportSet(1, [(0, 1), (0, -1)]))[0]

    def test_martingale_supports_are_nondegenerate(self):
        rng = random.Random(103)
        for _ in range(20):
            chain = random_marginal_chain(rng, rng.choice([1, 2]), max_support=5)
            P = left_monotone_multistep(chain)
            ok, witness = is_nondegenerate_set(SupportSet.of(P))
            assert ok, witness


class TestCompetitors:
    def _ambient(self):
        # one irreducible component covering every candidate pair
        mu = measure([(0, F(1, 2)), (1, F(1, 2))])
        nu = measure([(-2, F(1, 2)), (3, F(1, 2))])
        return [decompose_step(mu, nu)]

    def test_crossing_configuration_is_improved_by_the_swap(self):
        pi = PathMeasure(1, [((0, -1), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 2))])
        swap = PathMeasure(1, [((1, -1), F(1, 4)), ((1, 1), F(1, 4)), ((0, 0), F(1, 2))])
        reward = lambda p: p[0] * p[1] * p[1]
        improvement = find_improving_competitor(pi, reward, self._ambient())
        assert improvement is not None
        assert improvement.baseline == pi.expectation(reward)
        assert improvement.value >= swap.expectation(reward) > improvement.baseline
        assert improvement.competitor.expectation(reward) == improvement.value
        # the competitor keeps histories, conditional barycenters, last marginal
        assert improvement.competitor.marginal(1) == pi.marginal(1)
        assert improvement.competitor.marginal(0) == pi.marginal(0)

    def test_left_curtain_admits_no_improvement_for_probe_rewards(self):
        rng = random.Random(107)
        for _ in range(10):
            chain = random_marginal_chain(rng, 1, max_support=5)
            lc = left_curtain_one_step(chain[0], chain[1])
            decomps = [decompose_step(chain[0], chain[1])]
            for a in chain[0].support:
                for b in chain[1].support:
                    reward = left_tail_put_reward(a, 1, b)
                    improvement = find_improving_competitor(
                        lc, reward, decomps, marginal=chain[1]
                    )
                    assert improvement is None

    def test_one_decomposition_per_step(self):
        pi = PathMeasure(2, [((0, 0, 0), 1)])
        with pytest.raises(ValueError, match="^need one step decomposition per step of pi$"):
            find_improving_competitor(pi, lambda p: 0, self._ambient())

    def test_no_candidate_column_is_no_improvement_without_an_lp(self, monkeypatch):
        # (0, 1) leaves the diagonal of delta_0 -> delta_0, the only candidate
        monkeypatch.setattr(simplex, "solve_lp", None)
        pi = PathMeasure(1, [((0, 1), 1)])
        zero = decompose_step(DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(0))
        assert find_improving_competitor(pi, lambda p: p[1], [zero]) is None

    def test_float_reward_is_rejected_before_any_lp(self, monkeypatch):
        pi = PathMeasure(1, [((0, -1), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 2))])
        lps = []
        monkeypatch.setattr(simplex, "solve_lp", lambda *args: lps.append(args))
        with pytest.raises(TypeError, match="not a rational: 2.0"):
            find_improving_competitor(pi, lambda p: 2.0, self._ambient())
        assert lps == []

    def test_single_path_has_no_competitor(self):
        pi = PathMeasure(1, [((0, 0), 1)])
        mu = DiscreteMeasure.dirac(0)
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        improvement = find_improving_competitor(
            pi, lambda p: -abs(p[1]), [decompose_step(mu, nu)]
        )
        assert improvement is None


def spoiled(P: PathMeasure) -> PathMeasure:
    """`P` with every coordinate of every path an `Unhashable` copy."""
    return PathMeasure(P.n, ((tuple(map(Unhashable, p)), w) for p, w in P.paths))


class TestNoPositionIsHashed:
    """`branches`, both scans and the competitor search read histories in
    order and hash no position: on `Unhashable` copies they return what
    they return on the originals."""

    @staticmethod
    def assert_scans_alike(gamma: SupportSet, copy: SupportSet):
        assert all(type(c) is Unhashable for p in copy.points for c in p)
        for t in range(gamma.n + 1):
            assert copy.branches(t) == gamma.branches(t)
        assert is_left_monotone_set(copy) == is_left_monotone_set(gamma)
        assert is_nondegenerate_set(copy) == is_nondegenerate_set(gamma)

    def test_crossing_support_set(self):
        points = [(3, 0), (1, -3), (2, 1), (1, 3), (0, -2), (1, 2), (0, 2), (2, -1), (1, -2)]
        copy = SupportSet(1, [tuple(map(Unhashable, p)) for p in points])
        self.assert_scans_alike(SupportSet(1, points), copy)
        assert is_left_monotone_set(copy)[1] == CrossingWitness(1, (F(0),), F(-2), F(2), (F(2),), F(-1))
        assert is_nondegenerate_set(copy)[1] == DegeneracyWitness(1, (F(2),), F(-1))

    @pytest.mark.parametrize("policy", KernelPolicy, ids=lambda policy: policy.value)
    @pytest.mark.parametrize("seed", range(4))
    def test_built_couplings(self, seed, policy):
        chain = random_marginal_chain(random.Random(seed), 2, max_support=5, start_atoms=3)
        P = left_monotone_multistep(chain, policy)
        self.assert_scans_alike(SupportSet.of(P), SupportSet.of(spoiled(P)))
        decomps = [decompose_step(chain[t - 1], chain[t]) for t in (1, 2)]
        reward = lambda p: -((p[2] - p[1]) ** 3)
        last = DiscreteMeasure((Unhashable(x), w) for x, w in chain[2])
        expected = find_improving_competitor(P, reward, decomps, chain[2])
        assert find_improving_competitor(spoiled(P), reward, decomps, last) == expected

    def test_lp_optimizers(self):
        # optimizers of a left-tail put, two of which cross, and competitors
        # that improve on all three for another reward
        rng = random.Random(149)
        crossings = 0
        for sizes in [(2, 4, 6), (3, 4, 5), (2, 3, 5)]:
            chain = irreducible_chain(rng, sizes)
            P = solve_primal(chain, left_tail_put_reward(chain[0].support[0], 2, chain[2].support[2])).optimizer
            self.assert_scans_alike(SupportSet.of(P), SupportSet.of(spoiled(P)))
            crossings += not is_left_monotone_set(SupportSet.of(P))[0]
            decomps = [decompose_step(chain[t - 1], chain[t]) for t in (1, 2)]
            reward = lambda p: p[1] * p[2] * p[2]
            last = DiscreteMeasure((Unhashable(x), w) for x, w in chain[2])
            expected = find_improving_competitor(P, reward, decomps, chain[2])
            assert expected is not None
            assert find_improving_competitor(spoiled(P), reward, decomps, last) == expected
        assert crossings == 2
