import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    Interval,
    NegativeWeight,
    SchemaError,
    add,
    barycenter,
    call_value,
    convex_order_leq,
    positive_convex_order_leq,
    potential,
    put_value,
    restrict,
    subtract,
)
from leftcurtain.measure import measure_from_json_str, measure_to_json_str

from conftest import (
    lp_cast_set_exists,
    lp_martingale_coupling_exists,
    measure,
    mean_preserving_spread,
    oracle_convex_order_leq,
    oracle_positive_convex_order_leq,
    random_measure,
    random_pc_pair,
)


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

    def test_rational_strings_accepted(self):
        mu = DiscreteMeasure([("1/2", "3/4")])
        assert mu.atoms == ((F(1, 2), F(3, 4)),)


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


class TestArithmetic:
    def test_restrict_examples(self):
        two = measure([(-1, F(1, 2)), (1, F(1, 2))])
        assert restrict(two, Interval.at_most(-1)) == DiscreteMeasure.dirac(-1, F(1, 2))
        assert restrict(two, Interval.at_most(0)) == DiscreteMeasure.dirac(-1, F(1, 2))
        assert restrict(two, Interval.real_line()) == two
        assert restrict(two, Interval.open(-1, 1)).is_zero

    def test_barycenter_divides_by_mass(self):
        mu = measure([(-4, F(1, 8)), (0, F(3, 8))])
        assert mu.first_moment == F(-1, 2) and mu.mass == F(1, 2)
        assert barycenter(mu) == -1

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

    @given(small_measures(), small_measures())
    @settings(max_examples=40, deadline=None)
    def test_add_is_linear_in_mass_and_moment(self, mu, nu):
        total = add(mu, nu)
        assert total.mass == mu.mass + nu.mass
        assert total.first_moment == mu.first_moment + nu.first_moment


class TestJson:
    def test_round_trip(self):
        mu = measure([(F(-1, 3), F(2, 7)), (4, 1)])
        assert measure_from_json_str(measure_to_json_str(mu)) == mu

    def test_integers_allowed_and_duplicates_merged(self):
        mu = DiscreteMeasure.from_json(
            {"atoms": [{"x": 1, "w": "1/2"}, {"x": "1", "w": "1/2"}]}
        )
        assert mu == DiscreteMeasure.dirac(1, 1)

    def test_nonpositive_weight_rejected_with_pointer(self):
        with pytest.raises(SchemaError) as info:
            DiscreteMeasure.from_json({"atoms": [{"x": "0", "w": "0"}]})
        assert info.value.pointer == "/atoms/0/w"

    def test_float_rejected(self):
        with pytest.raises(SchemaError):
            DiscreteMeasure.from_json({"atoms": [{"x": 0.5, "w": "1"}]})
