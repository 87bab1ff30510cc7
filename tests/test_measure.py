import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    Interval,
    NegativeWeight,
    OutputTooLarge,
    SchemaError,
    add,
    barycenter,
    call_value,
    convex_order_leq,
    decompose_step,
    mass,
    positive_convex_order_leq,
    potential,
    put_value,
    rat,
    restrict,
    subtract,
)
from leftcurtain.measure import _json_from_text, _put_sweep, _rat_from_json

from conftest import (
    Unhashable,
    lp_cast_set_exists,
    lp_martingale_coupling_exists,
    mean_preserving_spread,
    measure,
    merge_positions,
    merge_weights,
    oracle_atoms,
    oracle_subtract,
    oracle_convex_order_leq,
    oracle_left_derivative,
    oracle_positive_convex_order_leq,
    oracle_potential_value,
    oracle_right_derivative,
    oracle_sweep_call_value,
    oracle_sweep_convex_order_leq,
    oracle_sweep_decompose_step,
    oracle_sweep_positive_convex_order_leq,
    oracle_sweep_potential,
    oracle_sweep_put_value,
    oracle_weight_at,
    outcome,
    random_measure,
    random_pc_pair,
    signed_weights,
)

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
ROOT = Path(__file__).resolve().parents[1]


def small_measures(max_atoms=4):
    return st.builds(
        DiscreteMeasure,
        st.lists(
            st.tuples(
                st.integers(-6, 6),
                st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=4),
            ),
            min_size=1,
            max_size=max_atoms,
        ),
    )


class TestConstruction:
    def test_atoms_sorted_merged_and_zero_dropped(self):
        mu = DiscreteMeasure([(2, F(1, 2)), (-1, 1), (2, F(1, 2)), (0, 0)])
        assert mu.atoms == ((F(-1), F(1)), (F(2), F(1)))

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            DiscreteMeasure([(0, -1)])

    def test_zero_measure(self):
        zero = DiscreteMeasure.zero()
        assert zero.is_zero and zero.mass == 0 and zero.barycenter == 0
        assert str(zero) == "0"

    def test_rational_strings_accepted(self):
        mu = DiscreteMeasure([("1/2", "3/4")])
        assert mu.atoms == ((F(1, 2), F(3, 4)),)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rat_rejects_booleans(self, flag):
        with pytest.raises(TypeError, match="not a rational"):
            rat(flag)

    def test_booleans_rejected_as_positions_and_weights(self):
        with pytest.raises(TypeError, match="not a rational"):
            DiscreteMeasure([(True, 1)])
        with pytest.raises(TypeError, match="not a rational"):
            DiscreteMeasure([(0, True)])


class TestMergeAgainstDictOracle:
    """The constructor's sorted merge against the dict merge it replaced."""

    @given(st.lists(st.tuples(merge_positions, merge_weights), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_atoms_equal_the_oracle(self, pairs):
        assert DiscreteMeasure(pairs).atoms == oracle_atoms(pairs)

    @given(st.lists(st.tuples(merge_positions, signed_weights), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_first_negative_weight_raises_as_the_oracle(self, pairs):
        assert outcome(lambda: DiscreteMeasure(pairs).atoms) == outcome(oracle_atoms, pairs)

    def test_messages_name_the_first_negative_atom(self):
        with pytest.raises(NegativeWeight, match=r"^atom at 1/2 has negative weight -1$"):
            DiscreteMeasure([(1, 1), ("2/4", -1), (0, -2)])

    def test_no_position_is_hashed(self):
        mu = DiscreteMeasure([(Unhashable(1, 2), 1), (Unhashable(0), 2), (Unhashable(2, 4), 1)])
        assert mu.atoms == ((F(0), F(2)), (F(1, 2), F(2)))


class TestSubtractAgainstDictOracle:
    """The sorted walk of `subtract` against the dict merge it replaced."""

    @given(
        st.lists(st.tuples(merge_positions, merge_weights), max_size=8),
        st.lists(st.tuples(merge_positions, merge_weights), max_size=8),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_difference_and_failure_equal_the_oracle(self, plus, minus, contained):
        mu, nu = DiscreteMeasure(plus), DiscreteMeasure(minus)
        if contained:  # nu <= mu atomwise, so the difference is defined
            mu = add(mu, nu)
        expected = outcome(oracle_subtract, mu, nu)
        assert outcome(subtract, mu, nu) == expected
        assert isinstance(expected, DiscreteMeasure) or not contained
        unhashable = [DiscreteMeasure((Unhashable(x), w) for x, w in m) for m in (mu, nu)]
        assert outcome(subtract, *unhashable) == expected

    def test_leftmost_failing_atom_is_named(self):
        mu = measure([(0, 1), (1, F(1, 2)), (3, 1)])
        with pytest.raises(NegativeWeight, match=r"^subtraction drives weight at 1 to -1/4$"):
            subtract(mu, measure([(1, F(3, 4)), (2, 1), (3, 2)]))
        with pytest.raises(NegativeWeight, match=r"^subtraction drives weight at -1 to -1$"):
            subtract(mu, measure([(-1, 1), (1, 1)]))
        with pytest.raises(NegativeWeight, match=r"^subtraction drives weight at 4 to -1/3$"):
            subtract(mu, measure([(3, 1), (4, F(1, 3))]))


class TestPotential:
    def test_dirac_is_absolute_value(self):
        u = potential(DiscreteMeasure.dirac(0))
        for x in (-3, F(-1, 2), 0, 1, 7):
            assert u(x) == abs(F(x))

    def test_two_point_values_and_slopes(self):
        u = potential(measure([(-1, F(1, 2)), (1, F(1, 2))]))
        assert u(0) == 1 and u(-1) == 1 and u(1) == 1
        assert u(-5) == 5 and u(7) == 7
        assert u.left_slope == -1 and u.right_slope == 1

    def test_three_point_values(self):
        u = potential(measure([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))]))
        assert u(0) == 1 and u(-2) == 2 and u(2) == 2

    def test_empty_measure_gives_zero_function(self):
        u = potential(DiscreteMeasure.zero())
        assert u(5) == 0 and u(-3) == 0

    @given(small_measures())
    @settings(max_examples=60, deadline=None)
    def test_kinks_slopes_and_convexity(self, mu):
        u = potential(mu)
        assert u.left_slope == -mu.mass and u.right_slope == mu.mass
        for x, w in mu:
            assert u.kink(x) == 2 * w
        slopes = [u.left_slope]
        pts = u.breakpoints
        for i in range(len(pts) - 1):
            (x0, v0), (x1, v1) = pts[i], pts[i + 1]
            slopes.append((v1 - v0) / (x1 - x0))
        slopes.append(u.right_slope)
        assert all(a <= b for a, b in zip(slopes, slopes[1:]))
        assert all(v >= 0 for _, v in pts)

    @given(small_measures())
    @settings(max_examples=40, deadline=None)
    def test_potential_matches_direct_sum(self, mu):
        u = potential(mu)
        for x in list(mu.support) + [F(-20), F(20), F(1, 3)]:
            direct = sum((w * abs(x - y) for y, w in mu), F(0))
            assert u(x) == direct


class TestLookupsAgainstScans:
    """The `bisect` lookups against the binary search and the scans they
    replaced, at every breakpoint, every midpoint and one point beyond each
    end of the hull."""

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-6, max_value=6, max_denominator=5),
                st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=4),
            ),
            max_size=6,
        ).map(DiscreteMeasure)
    )
    @example(DiscreteMeasure())
    @settings(max_examples=80, deadline=None)
    def test_potential_and_weights_equal_the_scans(self, mu):
        u = potential(mu)
        xs = list(mu.support) or [F(0)]
        points = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [xs[0] - 1, xs[-1] + 1]
        for x in points:
            assert u(x) == oracle_potential_value(u, x)
            assert u.right_derivative(x) == oracle_right_derivative(u, x)
            assert u.left_derivative(x) == oracle_left_derivative(u, x)
            assert mu.weight_at(x) == oracle_weight_at(mu, x)


class TestCallPut:
    def test_frozen_examples(self):
        assert call_value(DiscreteMeasure.dirac(0), 0) == 0
        assert call_value(measure([(-1, F(1, 2)), (1, F(1, 2))]), 0) == F(1, 2)
        # direct summation: only atoms above the strike contribute
        spread = measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
        assert call_value(spread, -1) == F(1, 2) * 1 + F(1, 4) * 5
        assert call_value(spread, -1) == F(7, 4)
        # the absolute-value integral at the same point is the potential
        assert potential(spread)(-1) == F(5, 2)

    def test_put_call_parity(self):
        mu = measure([(-3, F(1, 3)), (2, F(2, 3))])
        for b in (-4, -3, 0, 2, 5):
            assert call_value(mu, b) - put_value(mu, b) == mu.first_moment - b * mu.mass


class TestConvexOrder:
    def test_dirac_below_spread(self):
        dirac = DiscreteMeasure.dirac(0)
        spread = measure([(-1, F(1, 2)), (1, F(1, 2))])
        assert convex_order_leq(dirac, spread)
        assert not convex_order_leq(spread, dirac)

    def test_non_comparable_pair(self):
        wide = measure([(-2, F(1, 2)), (2, F(1, 2))])
        mid = measure([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))])
        assert not convex_order_leq(wide, mid)
        narrow = measure([(-1, F(1, 2)), (1, F(1, 2))])
        assert convex_order_leq(narrow, mid)

    def test_mass_and_barycenter_must_match(self):
        assert not convex_order_leq(DiscreteMeasure.dirac(0, 2), DiscreteMeasure.dirac(0, 1))
        assert not convex_order_leq(DiscreteMeasure.dirac(1), DiscreteMeasure.dirac(0))

    @given(small_measures())
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, mu):
        assert convex_order_leq(mu, mu)

    def test_antisymmetric_and_transitive(self):
        rng = random.Random(7)
        for _ in range(60):
            mu = random_measure(rng, max_atoms=3)
            nu = mean_preserving_spread(rng, mu)
            rho = mean_preserving_spread(rng, nu)
            assert convex_order_leq(mu, nu) and convex_order_leq(nu, rho)
            assert convex_order_leq(mu, rho)
            if mu != nu:
                assert not convex_order_leq(nu, mu)

    def test_agrees_with_coupling_lp_oracle(self):
        rng = random.Random(11)
        positives = negatives = 0
        for trial in range(120):
            if trial % 2 == 0:
                mu = random_measure(rng, max_atoms=3)
                nu = mean_preserving_spread(rng, mu)
                if len(nu) > 6:
                    continue
            else:
                mu = random_measure(rng, max_atoms=4)
                nu = random_measure(rng, max_atoms=4)
                shift = nu.first_moment - mu.first_moment
                if nu.mass == mu.mass:
                    nu = DiscreteMeasure((x - shift / nu.mass, w) for x, w in nu)
            claim = convex_order_leq(mu, nu)
            assert claim == lp_martingale_coupling_exists(mu, nu)
            positives += claim
            negatives += not claim
        assert positives >= 40 and negatives >= 20


class TestPositiveConvexOrder:
    def test_frozen_examples(self):
        part = DiscreteMeasure.dirac(-1, F(1, 2))
        target = measure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
        assert positive_convex_order_leq(part, target)
        mu = measure([(0, F(1, 3)), (2, F(1, 5))])
        assert positive_convex_order_leq(mu, mu)
        assert not positive_convex_order_leq(DiscreteMeasure.dirac(0, 2), DiscreteMeasure.dirac(0, 1))

    def test_agrees_with_cast_set_lp_oracle(self):
        rng = random.Random(13)
        positives = negatives = 0
        for trial in range(120):
            if trial % 2 == 0:
                mu, nu = random_pc_pair(rng)
            else:
                mu = random_measure(rng, max_atoms=3)
                nu = random_measure(rng, max_atoms=4)
            claim = positive_convex_order_leq(mu, nu)
            assert claim == lp_cast_set_exists(mu, nu)
            positives += claim
            negatives += not claim
        assert positives >= 40 and negatives >= 20


class TestOrderTestsAgainstSlowReference:
    """The merged put sweep against per-point call, put and |x - y| integrals."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["pc", "spread", "shifted spread", "random"]),
    )
    def test_order_tests_equal_per_point_references(self, seed, kind):
        rng = random.Random(seed)
        if kind == "pc":
            mu, nu = random_pc_pair(rng)
        elif kind.endswith("spread"):
            mu = random_measure(rng, max_atoms=4)
            shift = rng.choice([-1, 1]) if kind == "shifted spread" else 0
            nu = DiscreteMeasure((x + shift, w) for x, w in mean_preserving_spread(rng, mu))
        else:
            mu, nu = random_measure(rng, max_atoms=5), random_measure(rng, max_atoms=5)
        for a, b in ((mu, nu), (nu, mu)):
            assert positive_convex_order_leq(a, b) == oracle_positive_convex_order_leq(a, b)
            assert convex_order_leq(a, b) == oracle_convex_order_leq(a, b)


# Rationals with small and with 64- to 70-bit denominators, of either sign.
_denominators = st.one_of(st.integers(1, 12), st.integers(2**64, 2**70))
_positions = st.builds(F, st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70)), _denominators)
_weights = st.builds(F, st.one_of(st.integers(1, 9), st.integers(1, 2**70)), _denominators)


@st.composite
def sweep_pairs(draw):
    """(mu, nu) on one shared pool of positions, so that atoms of mu and nu
    often sit at the same point.

    nu is drawn independently (mostly unequal mass or mean), or mu is zero,
    or nu is a spread of mu: each atom of mu stays or splits onto two pool
    points around it (the nearest ones first) in proportions that keep its
    mean, so mu <=_c nu.  A spread is then kept, given extra mass (so
    mu <=_pc nu only), or shifted or moved by one atom (order usually lost).
    """
    pool = sorted(draw(st.lists(_positions, min_size=3, max_size=8, unique=True)))
    atoms = st.lists(
        st.tuples(st.sampled_from(pool), _weights), min_size=1, max_size=5, unique_by=lambda a: a[0]
    )
    mu = DiscreteMeasure(draw(atoms))
    kind = draw(st.sampled_from(["spread", "random", "extra mass", "shift", "moved atom", "zero"]))
    if kind == "random":
        return mu, DiscreteMeasure(draw(atoms))
    if kind == "zero":
        return DiscreteMeasure.zero(), draw(st.sampled_from([DiscreteMeasure.zero(), mu]))
    spread = []
    for x, w in mu:
        below, above = [y for y in pool if y < x], [y for y in pool if y > x]
        if not below or not above or draw(st.sampled_from([False, False, True])):
            spread.append((x, w))
            continue
        lo, hi = draw(st.sampled_from(below[::-1])), draw(st.sampled_from(above))
        spread += [(lo, w * (hi - x) / (hi - lo)), (hi, w * (x - lo) / (hi - lo))]
    if kind == "extra mass":
        spread += draw(atoms)
    elif kind == "shift":
        shift = draw(_positions)
        spread = [(x + shift, w) for x, w in spread]
    elif kind == "moved atom":
        (x, w), step = spread.pop(), draw(_positions)
        spread.append((x + step, w))
    return mu, DiscreteMeasure(spread)


class TestPutSweepAgainstFractionOracle:
    """The integer put sweep against the Fraction sweep it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(sweep_pairs())
    def test_order_verdicts(self, pair):
        for a, b in (pair, pair[::-1]):
            assert convex_order_leq(a, b) == oracle_sweep_convex_order_leq(a, b)
            assert positive_convex_order_leq(a, b) == oracle_sweep_positive_convex_order_leq(a, b)

    @settings(max_examples=200, deadline=None)
    @given(sweep_pairs())
    def test_decompose_step(self, pair):
        for a, b in (pair, pair[::-1]):
            assert outcome(decompose_step, a, b) == outcome(oracle_sweep_decompose_step, a, b)

    @settings(max_examples=150, deadline=None)
    @given(sweep_pairs(), st.lists(_positions, max_size=3))
    def test_potentials_puts_and_calls(self, pair, points):
        for m in pair:
            assert potential(m) == oracle_sweep_potential(m)
            for b in points + list(m.support):
                assert put_value(m, b) == oracle_sweep_put_value(m, b)
                assert call_value(m, b) == oracle_sweep_call_value(m, b)

    def test_two_components_with_large_denominators(self):
        big = 2**64 + 13
        mu = measure([(F(1, big), F(1, 3)), (F(7, 2), F(2, 3))])
        nu = measure([(0, F(2, 9)), (F(3, big), F(1, 9)), (3, F(1, 3)), (4, F(1, 3))])
        assert convex_order_leq(mu, nu)
        decomposition = decompose_step(mu, nu)
        assert len(decomposition.components) == 2
        assert decomposition == oracle_sweep_decompose_step(mu, nu)

    def test_zero_measures(self):
        zero, one = DiscreteMeasure.zero(), DiscreteMeasure.dirac(F(-1, 3), F(2, 2**65 + 1))
        assert convex_order_leq(zero, zero) and positive_convex_order_leq(zero, one)
        assert not convex_order_leq(zero, one) and not positive_convex_order_leq(one, zero)
        assert decompose_step(zero, zero) == oracle_sweep_decompose_step(zero, zero)
        assert potential(zero) == oracle_sweep_potential(zero)
        assert put_value(zero, 5) == call_value(zero, -5) == 0


class TestPutSweepIntegerWeights:
    """A weight of `_put_sweep` is a rational: on int weights E*w, E the lcm
    of the weight denominators, the sweep is that of the Fraction weights w
    with weight scale 1 for E (`strong_order_holds` sweeps int takes)."""

    @settings(max_examples=200, deadline=None)
    @given(sweep_pairs(), st.lists(_positions, max_size=3))
    def test_int_weights_sweep_as_their_fractions(self, pair, points):
        mu, nu = pair
        e = math.lcm(*(w.denominator for _, w in mu.atoms + nu.atoms))

        def scaled(m):
            return [(x, int(e * w)) for x, w in m.atoms]

        *sweep, d, scale = _put_sweep(nu.atoms, mu.atoms, points)
        assert scale == e
        assert _put_sweep(scaled(nu), scaled(mu), points) == (*sweep, d, 1)


class TestArithmetic:
    def test_restrict_examples(self):
        two = measure([(-1, F(1, 2)), (1, F(1, 2))])
        assert restrict(two, Interval.at_most(-1)) == DiscreteMeasure.dirac(-1, F(1, 2))
        assert restrict(two, Interval.at_most(0)) == DiscreteMeasure.dirac(-1, F(1, 2))
        assert restrict(two, Interval.real_line()) == two
        assert restrict(two, Interval.open(-1, 1)).is_zero

    def test_interval_str(self):
        assert str(Interval.real_line()) == "(-inf, inf)"
        assert str(Interval.closed(-1, F(1, 2))) == "[-1, 1/2]"
        assert str(Interval(F(0), None, False, False)) == "(0, inf)"
        assert str(Interval.at_most(2)) == "(-inf, 2]"

    def test_barycenter_divides_by_mass(self):
        mu = measure([(-4, F(1, 8)), (0, F(3, 8))])
        assert mu.first_moment == F(-1, 2) and mu.mass == F(1, 2)
        assert barycenter(mu) == -1 and mass(mu) == F(1, 2)

    def test_add_and_subtract(self):
        mu = measure([(0, 1), (2, F(1, 2))])
        assert add(mu, DiscreteMeasure.zero()) == mu
        assert subtract(mu, mu).is_zero
        assert subtract(mu, DiscreteMeasure.dirac(2, F(1, 4))) == measure(
            [(0, 1), (2, F(1, 4))]
        )
        with pytest.raises(NegativeWeight):
            subtract(mu, DiscreteMeasure.dirac(2, 1))
        with pytest.raises(NegativeWeight):
            subtract(mu, DiscreteMeasure.dirac(5, F(1, 8)))

    def test_scaled(self):
        mu = measure([(0, 1), (2, F(1, 2))])
        assert mu.scaled("2/3") == measure([(0, F(2, 3)), (2, F(1, 3))])
        assert mu.scaled(0).is_zero
        with pytest.raises(NegativeWeight, match="^cannot scale by negative factor -1/2$"):
            mu.scaled("-1/2")

    @given(small_measures(), small_measures())
    @settings(max_examples=40, deadline=None)
    def test_add_is_linear_in_mass_and_moment(self, mu, nu):
        total = add(mu, nu)
        assert total.mass == mu.mass + nu.mass
        assert total.first_moment == mu.first_moment + nu.first_moment


class TestJson:
    def test_round_trip(self):
        mu = measure([(F(-1, 3), F(2, 7)), (4, 1)])
        assert DiscreteMeasure.from_json(json.loads(json.dumps(mu.to_json()))) == mu

    def test_integers_allowed_and_duplicates_merged(self):
        mu = DiscreteMeasure.from_json(
            {"atoms": [{"x": 1, "w": "1/2"}, {"x": "1", "w": "1/2"}]}
        )
        assert mu == DiscreteMeasure.dirac(1, 1)

    def test_nonpositive_weight_rejected_with_pointer(self):
        with pytest.raises(SchemaError) as info:
            DiscreteMeasure.from_json({"atoms": [{"x": "0", "w": "0"}]})
        assert info.value.pointer == "/atoms/0/w"

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,
            pytest.param(
                '{"atoms": [{"x": %s, "w": 1}]}' % ("1" * (DIGIT_LIMIT + 1)),
                marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit"),
            ),
        ],
        ids=["deep", "long-integer"],
    )
    def test_unreadable_text_is_a_schema_error(self, text):
        with pytest.raises(SchemaError, match="invalid JSON") as info:
            _json_from_text(text, "")
        assert info.value.pointer == ""

    def test_decimal_literals(self):
        node = {"atoms": [{"x": "1e-1", "w": "0.5"}, {"x": "0e5", "w": "5E-1"}]}
        assert DiscreteMeasure.from_json(node) == DiscreteMeasure([(F(1, 10), F(1, 2)), (0, F(1, 2))])

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
    @pytest.mark.parametrize("x", ["0e3000000", "-0.00E-3000000"])
    def test_zero_mantissa_is_zero_unexpanded(self, x):
        start = time.perf_counter()
        assert _rat_from_json(x, "/x") == 0
        assert time.perf_counter() - start < 1

    # Fraction alone takes seconds to expand each of these
    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
    @pytest.mark.parametrize("x", ["1e3000000", "-2.5E-3000000", "0.001e3000003"])
    def test_exponent_past_the_limit_is_rejected_unexpanded(self, x):
        start = time.perf_counter()
        with pytest.raises(SchemaError, match=f"invalid rational: more than {DIGIT_LIMIT} digits") as info:
            DiscreteMeasure.from_json({"atoms": [{"x": x, "w": "1"}]}, "#")
        assert info.value.pointer == "#/atoms/0/x"
        assert time.perf_counter() - start < 1

    # Fraction alone expands 10**|exponent| first, for a second and more on
    # these; the library's own parser reads them at once.
    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
    @pytest.mark.parametrize(
        "call, expected",
        [
            ('rat("1e1000000")', f"ValueError: more than {DIGIT_LIMIT} digits"),
            ('DiscreteMeasure.dirac("0e2000000").atoms', "((Fraction(0, 1), Fraction(1, 1)),)"),
        ],
    )
    def test_rat_reads_huge_exponents_at_once(self, call, expected):
        code = (
            "from leftcurtain.measure import DiscreteMeasure, rat\n"
            f"try:\n    print(repr({call}))\n"
            "except ValueError as exc:\n    print(f'ValueError: {exc}')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert (done.returncode, done.stdout.strip()) == (0, expected), done.stderr

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
    @pytest.mark.parametrize("mantissa", ["1", "-7", "0.001", "25", "1.5", "0.0", "123.456", "1_000"])
    def test_exponents_near_the_limit_read_as_fraction_does(self, mantissa):
        for exponent in range(DIGIT_LIMIT - 4, DIGIT_LIMIT + 5):
            for sign in ("", "-"):
                literal = f"{mantissa}e{sign}{exponent}"
                value = F(literal)
                if max(abs(value.numerator), value.denominator) < 10**DIGIT_LIMIT:
                    assert _rat_from_json(literal, "/x") == value
                else:
                    with pytest.raises(SchemaError, match="more than"):
                        _rat_from_json(literal, "/x")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no limit on integer string conversion",
    )
    def test_rational_past_the_digit_limit_is_too_large_to_write(self):
        tiny = F(1, 10 ** sys.get_int_max_str_digits())
        with pytest.raises(OutputTooLarge):
            DiscreteMeasure.dirac(tiny).to_json()
        with pytest.raises(OutputTooLarge):
            Interval.closed(0, tiny).to_json()

    def test_float_rejected(self):
        with pytest.raises(SchemaError):
            DiscreteMeasure.from_json({"atoms": [{"x": 0.5, "w": "1"}]})
