import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    NotInPositiveConvexOrder,
    ShadowResult,
    add,
    call_value,
    convex_order_leq,
    obstructed_shadow,
    positive_convex_order_leq,
    shadow,
    shadow_atom,
    subtract,
)
from leftcurtain.shadow import _Residual

from conftest import (
    OracleResidual,
    lp_cast_min_call,
    lp_min_second_moment_atom,
    measure,
    mean_preserving_spread,
    oracle_atom_failure,
    oracle_hull_shadow,
    oracle_positive_convex_order_leq,
    oracle_shadow,
    oracle_shadow_atom,
    random_measure,
    random_pair,
    random_pc_pair,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _outcome(run):
    """(shadow, residual) of a run, or its exception's type and message."""
    try:
        return run()
    except NotInPositiveConvexOrder as exc:
        return type(exc), str(exc)


def _oracle_fold(mu, nu):
    """(shadow, residual) of mu in nu from `oracle_take`, atom by atom: the
    first atom whose take fails raises, with `oracle_take`'s words."""
    residual = OracleResidual(nu)
    return DiscreteMeasure([piece for x, q in mu.atoms for piece in residual.take(x, q)]), residual.measure()


class TestResidualTake:
    """`_Residual.take` against the interval search and the put-gap hull."""

    @settings(max_examples=300, deadline=None)
    @given(
        seeds,
        st.sampled_from(["pc", "random", "spread", "reversed", "shrunk", "grown"]),
        st.fractions(min_value=0, max_value=2, max_denominator=6),
    )
    def test_single_take(self, seed, kind, share):
        mu, nu = random_pair(random.Random(seed), kind)
        for x, w in mu:
            q = w * share

            def take():
                residual = _Residual(nu)
                piece = DiscreteMeasure(residual.take(x, q))
                return piece, residual.measure()

            def atom():
                result = shadow_atom(q, x, nu)
                return result.shadow, result.residual

            got = _outcome(take)
            hull = _outcome(lambda: oracle_hull_shadow(DiscreteMeasure.dirac(x, q), nu))
            if hull[0] is NotInPositiveConvexOrder:
                assert got[0] is NotInPositiveConvexOrder  # the hull checks the verdict only
            else:
                assert got == hull
            assert _outcome(atom) == got == _outcome(lambda: oracle_shadow_atom(q, x, nu))
            assert got == _outcome(lambda: _oracle_fold(DiscreteMeasure.dirac(x, q), nu))

    def test_take_consumes_the_window_in_place(self):
        nu = measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
        residual = _Residual(nu)
        assert residual.take(F(-1), F(1, 2)) == [(-4, F(1, 8)), (0, F(3, 8))]
        assert residual.measure() == measure([(-4, F(1, 8)), (0, F(1, 8)), (4, F(1, 4))])
        assert residual.take(F(0), F(1, 8)) == [(0, F(1, 8))]
        assert residual.measure() == measure([(-4, F(1, 8)), (4, F(1, 4))])
        assert residual.take(F(0), 0) == []
        with pytest.raises(NotInPositiveConvexOrder):
            residual.take(F(0), F(1, 2))


    def test_integer_take_names_target_indices(self):
        nu = measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
        residual = _Residual(nu)
        assert residual.take_ints(F(-1), 1, 2) == ([(0, 1), (1, 3)], 8)
        assert residual.take_ints(F(0), 1, 8) == ([(1, 1)], 8)
        assert residual.held == [0, 2]
        assert residual.take_ints(F(4), 1, 4) == ([(2, 2)], 8)  # the scale of what is held
        assert residual.take_ints(F(-4), 0, 1) == ([], 1)


_positions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_takes = st.lists(
    st.tuples(
        st.integers(0, 11),  # below 6: x is an atom of the target, if it has one
        st.fractions(min_value=-7, max_value=7, max_denominator=35),
        st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=4, max_denominator=30)),
    ),
    min_size=1,
    max_size=6,
)


def _scaled_weights(residual):
    """The held weights as integers over the residual's weight scale E."""
    return [n * (residual.e // d) for n, d in zip(residual.nums, residual.dens)]


def _run_against_oracle(nu, takes):
    """Apply the takes to `_Residual` and to the Fraction residual; after
    each, pieces (or exception and message) and measures are `==`, every
    held weight is in lowest terms and counted, and the weight scale is
    reduced.  Returns the integer residual."""
    residual, oracle = _Residual(nu), OracleResidual(nu)
    for x, q in takes:
        expected = _outcome(lambda: oracle.take(x, q))
        assert _outcome(lambda: residual.take(x, q)) == expected
        assert residual.measure() == oracle.measure()
        assert all(math.gcd(n, d) == 1 for n, d in zip(residual.nums, residual.dens))
        assert residual.den_count == Counter(residual.dens) and 0 not in residual.den_count.values()
        assert math.gcd(residual.e, *_scaled_weights(residual)) == 1
    return residual


class TestIntegerResidual:
    """`_Residual` in integers against the Fraction residual it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(_positions, st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12)), max_size=6),
        _takes,
    )
    def test_takes_equal_the_fraction_residual(self, atoms, takes):
        nu = DiscreteMeasure(atoms)
        support = nu.support
        _run_against_oracle(nu, [(support[i % len(support)] if support and i < 6 else x, q) for i, x, q in takes])

    def test_x_off_the_support_with_a_new_denominator(self):
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        residual = _run_against_oracle(nu, [(F(1, 7), F(1, 2)), (F(-2, 3), F(1, 4))])
        assert residual.d == 21

    def test_q_with_a_new_denominator(self):
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        residual = _run_against_oracle(nu, [(F(0), F(1, 3))])
        assert residual.measure() == measure([(-1, F(1, 3)), (1, F(1, 3))])
        assert residual.e == 3

    def test_zero_mass_changes_nothing(self):
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        residual = _run_against_oracle(nu, [(F(1, 5), F(0)), (F(9), 0)])
        assert (residual.d, residual.e, residual.xs, _scaled_weights(residual)) == (1, 2, [-1, 1], [1, 1])

    def test_step_lands_on_an_atom_boundary(self):
        nu = measure([(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))])
        residual = _Residual(nu)
        assert residual.take(F(1, 2), F(2, 3)) == [(0, F(1, 3)), (1, F(1, 3))]
        assert (residual.e, _scaled_weights(residual)) == (3, [1])
        _run_against_oracle(nu, [(F(1, 2), F(2, 3)), (F(2), F(1, 3))])

    def test_step_that_is_not_whole_grows_the_weight_scale(self):
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        residual = _run_against_oracle(nu, [(F(0), F(1, 2))])
        assert (residual.e, _scaled_weights(residual)) == (4, [1, 1])

    def test_consumed_weights_leave_the_scale(self):
        nu = measure([(0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4))])
        residual = _run_against_oracle(nu, [(F(3, 2), F(1, 2))])
        assert (residual.e, _scaled_weights(residual)) == (2, [1])
        residual = _run_against_oracle(nu, [(F(0), F(1, 2)), (F(3, 2), F(1, 2))])
        assert (residual.e, _scaled_weights(residual)) == (1, [])

    @pytest.mark.parametrize(
        "x, q, condition",
        [
            (F(0), F(4, 3), "q is more than the mass left"),
            (F(-1), F(1, 3), "x is left of the barycenter of the leftmost mass q"),
            (F(5, 3), F(1, 3), "x is right of the barycenter of the rightmost mass q"),
        ],
        ids=["q-above-the-mass", "left-cut-fails", "moment-below-target"],
    )
    def test_failures(self, x, q, condition):
        # each take grows a scale first; a failure leaves the weights as they were
        nu = measure([(0, F(1, 2)), (2, F(1, 4))])
        message = f"{q}*d[{x}] is not <=_pc the target: {condition}"
        assert _outcome(lambda: _Residual(nu).take(x, q)) == (NotInPositiveConvexOrder, message)
        assert oracle_atom_failure(q, x, nu) == condition
        residual = _run_against_oracle(nu, [(x, q), (x, q)])
        assert residual.measure() == nu and residual.e == 4
        _run_against_oracle(nu, [(x, q), (F(1, 3), F(1, 4)), (x, q)])


class TestAgainstSlowReference:
    """The quantile-window fold against the atom-by-atom interval search."""

    @settings(max_examples=200, deadline=None)
    @given(seeds, st.integers(1, 6))
    def test_shadow_equals_interval_search_fold(self, seed, max_atoms):
        mu, nu = random_pc_pair(random.Random(seed), max_atoms=max_atoms)
        result = shadow(mu, nu)
        assert (result.shadow, result.residual) == oracle_shadow(mu, nu)

    @settings(max_examples=300, deadline=None)
    @given(seeds, st.sampled_from(["pc", "random", "spread", "reversed", "shrunk", "grown"]))
    def test_shadow_decides_order_as_interval_search(self, seed, kind):
        # `shadow` is the fold of mu's atoms through one residual: several takes
        mu, nu = random_pair(random.Random(seed), kind)

        def fold():
            result = shadow(mu, nu)
            return result.shadow, result.residual

        got = _outcome(fold)
        hull = _outcome(lambda: oracle_hull_shadow(mu, nu))
        if oracle_positive_convex_order_leq(mu, nu):
            assert got == hull == oracle_shadow(mu, nu)
        else:
            # the verdict is the hull's; the message names the first atom whose
            # `oracle_take` fails, with its condition, as the interval search does
            assert hull[0] is NotInPositiveConvexOrder
            assert got == _outcome(lambda: _oracle_fold(mu, nu)) == _outcome(lambda: oracle_shadow(mu, nu))
            assert got[0] is NotInPositiveConvexOrder

    @settings(max_examples=300, deadline=None)
    @given(
        seeds,
        st.fractions(min_value=-1, max_value=5, max_denominator=4),
        st.fractions(min_value=-8, max_value=8, max_denominator=3),
    )
    def test_shadow_atom_equals_interval_search(self, seed, share, x):
        nu = random_measure(random.Random(seed), max_atoms=6)
        q = nu.mass * share
        try:
            expected = oracle_shadow_atom(q, x, nu)
        except NotInPositiveConvexOrder as exc:
            with pytest.raises(type(exc)) as info:
                shadow_atom(q, x, nu)
            assert str(info.value) == str(exc)
            return
        result = shadow_atom(q, x, nu)
        assert (result.shadow, result.residual) == expected


class TestShadowAtom:
    def test_interval_with_fractional_endpoints(self):
        target = measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
        result = shadow_atom(F(1, 2), -1, target)
        assert result.shadow == measure([(-4, F(1, 8)), (0, F(3, 8))])
        assert result.residual == subtract(target, result.shadow)

    def test_atom_fits_in_place(self):
        target = measure([(0, F(3, 4)), (2, F(1, 4))])
        result = shadow_atom(F(1, 2), 0, target)
        assert result.shadow == DiscreteMeasure.dirac(0, F(1, 2))

    def test_zero_mass(self):
        target = DiscreteMeasure.dirac(0)
        result = shadow_atom(0, 5, target)
        assert result.shadow.is_zero and result.residual == target

    def test_rejects_booleans(self):
        with pytest.raises(TypeError, match="not a rational"):
            shadow_atom(True, 0, DiscreteMeasure.dirac(0))
        with pytest.raises(TypeError, match="not a rational"):
            shadow_atom(1, False, DiscreteMeasure.dirac(0))

    def test_rejects_unreachable_atom(self):
        target = DiscreteMeasure.dirac(0)
        with pytest.raises(NotInPositiveConvexOrder):
            shadow_atom(F(1, 2), 3, target)
        with pytest.raises(NotInPositiveConvexOrder):
            shadow_atom(2, 0, target)

    def test_mass_and_barycenter_preserved(self):
        rng = random.Random(31)
        for _ in range(60):
            nu = random_measure(rng, max_atoms=5)
            lo, hi = nu.support[0], nu.support[-1]
            q = nu.mass * F(rng.randint(1, 3), 4)
            x = F(rng.randint(int(lo * 2), int(hi * 2)), 2)
            if not positive_convex_order_leq(DiscreteMeasure.dirac(x, q), nu):
                continue
            result = shadow_atom(q, x, nu)
            assert result.shadow.mass == q
            assert result.shadow.first_moment == q * x
            assert add(result.shadow, result.residual) == nu

    def test_matches_lp_second_moment_oracle(self):
        rng = random.Random(37)
        checked = 0
        while checked < 80:
            nu = random_measure(rng, max_atoms=5)
            lo, hi = nu.support[0], nu.support[-1]
            q = nu.mass * F(rng.randint(1, 4), 4)
            x = F(rng.randint(int(lo * 2), int(hi * 2)), 2)
            oracle = lp_min_second_moment_atom(q, x, nu)
            claims = positive_convex_order_leq(DiscreteMeasure.dirac(x, q), nu)
            assert claims == (oracle is not None)
            if oracle is None:
                continue
            result = shadow_atom(q, x, nu)
            assert result.shadow == oracle
            checked += 1


class TestShadow:
    def test_full_mass_shadow_is_target(self):
        rng = random.Random(41)
        for _ in range(25):
            mu = random_measure(rng, max_atoms=3)
            nu = mean_preserving_spread(rng, mu)
            assert shadow(mu, nu).shadow == nu

    def test_half_source_example(self):
        part = DiscreteMeasure.dirac(-1, F(1, 2))
        step = measure([(-2, F(1, 2)), (2, F(1, 2))])
        assert shadow(part, step).shadow == measure([(-2, F(3, 8)), (2, F(1, 8))])

    def test_rejects_outside_positive_order(self):
        with pytest.raises(NotInPositiveConvexOrder):
            shadow(DiscreteMeasure.dirac(0, 2), DiscreteMeasure.dirac(0, 1))

    def test_both_zero(self):
        zero = DiscreteMeasure.zero()
        assert shadow(zero, zero) == ShadowResult(zero, zero)

    def test_source_equals_target(self):
        mu = measure([(-1, F(1, 3)), (0, F(1, 6)), (2, F(1, 2))])
        assert shadow(mu, mu) == ShadowResult(mu, DiscreteMeasure.zero())

    def test_one_point_grid(self):
        mu, nu = DiscreteMeasure.dirac(3, F(1, 4)), DiscreteMeasure.dirac(3, 1)
        assert shadow(mu, nu) == ShadowResult(mu, DiscreteMeasure.dirac(3, F(3, 4)))
        assert shadow_atom(F(1, 4), 3, nu) == shadow(mu, nu)

    def test_more_mass_than_target(self):
        # on a one-point grid every put and call gap is 0: only the mass decides
        mu, nu = DiscreteMeasure.dirac(3, 1), DiscreteMeasure.dirac(3, F(1, 4))
        message = "1*d[3] is not <=_pc the target: q is more than the mass left"
        assert _outcome(lambda: shadow(mu, nu)) == (NotInPositiveConvexOrder, message)
        assert _outcome(lambda: shadow_atom(1, 3, nu)) == (NotInPositiveConvexOrder, message)

    def test_source_atom_outside_target_hull(self):
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        for x, side in ((2, "right of the barycenter of the rightmost"), (-2, "left of the barycenter of the leftmost")):
            # right of the hull a call fails (last slope), left of it a put (first slope)
            failure = (NotInPositiveConvexOrder, f"1/8*d[{x}] is not <=_pc the target: x is {side} mass q")
            assert _outcome(lambda: shadow(DiscreteMeasure.dirac(x, F(1, 8)), nu)) == failure
            assert _outcome(lambda: shadow_atom(F(1, 8), x, nu)) == failure

    def test_fold_names_the_first_atom_that_fails(self):
        # 1/4*d[-1] takes 1/8 at -2 and 1/8 at 0, so the rightmost mass 1/2
        # left has barycenter 1 < 3/2; 1/8*d[2] alone would fit
        nu = measure([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))])
        mu = measure([(-1, F(1, 4)), (F(3, 2), F(1, 2)), (2, F(1, 8))])
        message = "1/2*d[3/2] is not <=_pc the target: x is right of the barycenter of the rightmost mass q"
        assert _outcome(lambda: shadow(mu, nu)) == (NotInPositiveConvexOrder, message)
        assert _outcome(lambda: _oracle_fold(mu, nu)) == (NotInPositiveConvexOrder, message)

    def test_fold_order_does_not_matter(self):
        rng = random.Random(43)
        cases = 0
        while cases < 12:
            mu, nu = random_pc_pair(rng, max_atoms=5)
            if len(mu) < 2 or len(mu) > 5:
                continue
            expected = shadow(mu, nu).shadow
            for perm in itertools.permutations(mu.atoms):
                total = DiscreteMeasure.zero()
                residual = nu
                for x, w in perm:
                    piece = shadow_atom(w, x, residual)
                    total = add(total, piece.shadow)
                    residual = piece.residual
                assert total == expected
            cases += 1

    def test_call_values_match_cast_lp_minimum(self):
        rng = random.Random(47)
        checked = 0
        while checked < 25:
            mu, nu = random_pc_pair(rng, max_atoms=4)
            result = shadow(mu, nu).shadow
            for b in sorted(set(result.support) | set(nu.support)):
                assert call_value(result, b) == lp_cast_min_call(mu, nu, b)
            checked += 1

    def test_shadow_dominates_source_in_convex_order(self):
        rng = random.Random(53)
        for _ in range(30):
            mu, nu = random_pc_pair(rng, max_atoms=4)
            result = shadow(mu, nu).shadow
            if mu.mass == result.mass and mu.first_moment == result.first_moment:
                assert convex_order_leq(mu, result)


class TestObstructedShadow:
    def test_single_link_is_plain_shadow(self):
        rng = random.Random(59)
        for _ in range(20):
            mu, nu = random_pc_pair(rng, max_atoms=4)
            assert obstructed_shadow(mu, [nu]) == shadow(mu, nu).shadow

    def test_two_step_example(self):
        part = DiscreteMeasure.dirac(-1, F(1, 2))
        chain = [
            measure([(-2, F(1, 2)), (2, F(1, 2))]),
            measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))]),
        ]
        expected = measure([(-4, F(3, 16)), (0, F(1, 4)), (4, F(1, 16))])
        assert obstructed_shadow(part, chain) == expected

    def test_obstruction_can_strictly_coarsen(self):
        # the same source without the middle obstruction lands more centrally
        part = DiscreteMeasure.dirac(-1, F(1, 2))
        final = measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
        direct = shadow(part, final).shadow
        chained = obstructed_shadow(
            part, [measure([(-2, F(1, 2)), (2, F(1, 2))]), final]
        )
        assert direct == measure([(-4, F(1, 8)), (0, F(3, 8))])
        assert convex_order_leq(direct, chained)
        assert direct != chained

    def test_a_failing_fold_names_its_first_failing_date(self):
        """Each target is a spread of the one before it (the fold goes on) or
        a random measure (it may stop): a failure names the first date at
        which the Fraction fold fails, then that fold's words."""
        rng = random.Random(67)
        seen = Counter()
        while min(seen[t] for t in (0, 1, 2, 3)) < 8:
            part, nu = random_pc_pair(rng, max_atoms=4)
            chain = []
            for _ in range(3):
                nu = mean_preserving_spread(rng, nu) if rng.random() < 0.5 else random_measure(rng)
                chain.append(nu)
            theta, failure = part, None
            for t, nu in enumerate(chain, start=1):
                got = _outcome(lambda: _oracle_fold(theta, nu)[0])
                if not isinstance(got, DiscreteMeasure):
                    failure = (got[0], f"date {t}: {got[1]}")
                    break
                theta = got
            seen[t if failure else 0] += 1
            assert _outcome(lambda: obstructed_shadow(part, chain)) == (failure or theta)

    def test_iterated_coincides_iff_shadows_ordered(self):
        rng = random.Random(61)
        agree = disagree = 0
        while agree < 10 or disagree < 10:
            mu, nu1 = random_pc_pair(rng, max_atoms=4)
            nu2 = mean_preserving_spread(rng, nu1)
            s1 = shadow(mu, nu1).shadow
            s2 = shadow(mu, nu2).shadow
            iterated = shadow(s1, nu2).shadow
            ordered = convex_order_leq(s1, s2)
            assert (iterated == s2) == ordered
            if ordered:
                agree += 1
            else:
                disagree += 1
