import random
from fractions import Fraction as F

import pytest

from leftcurtain import geometry
from leftcurtain import (
    DiscreteMeasure,
    PathMeasure,
    SupportSet,
    decompose_step,
    find_improving_competitor,
    is_left_monotone_set,
    is_nondegenerate_set,
    left_curtain_one_step,
    left_monotone_multistep,
    left_tail_put_reward,
)

from conftest import measure, random_marginal_chain


class TestSupportSet:
    def test_rejects_float_coordinates(self):
        with pytest.raises(TypeError, match="not a rational"):
            SupportSet(1, [(0.1, F(1, 2))])
        assert SupportSet(1, [("1/10", 0)]).points == frozenset({(F(1, 10), F(0))})


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

    def test_float_reward_is_rejected_before_any_lp(self, monkeypatch):
        pi = PathMeasure(1, [((0, -1), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 2))])
        lps = []
        monkeypatch.setattr(geometry, "solve_lp", lambda *args: lps.append(args))
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
