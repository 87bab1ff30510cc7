import hashlib
import json
import math
import random
import sys
import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    Interval,
    KernelPolicy,
    MarginalMismatch,
    NegativeWeight,
    NotInConvexOrder,
    NotMartingale,
    PathCountExceeded,
    PathMeasure,
    SchemaError,
    SupportSet,
    binomial_check,
    decompose_step,
    extract_dual,
    feasible_transport,
    free_monotone_transport,
    is_left_monotone_set,
    is_martingale,
    is_nondegenerate_set,
    left_curtain_one_step,
    left_monotone_multistep,
    left_tail_put_reward,
    markov_check,
    obstructed_shadow,
    solve_primal,
    strong_order_holds,
    verify_left_monotone,
)
from leftcurtain import coupling
from leftcurtain import measure as measure_module
from leftcurtain.cli import main
from leftcurtain.coupling import _increments
from leftcurtain.measure import _json_from_text
from leftcurtain.shadow import _Residual

from conftest import (
    Unhashable,
    grid_chain,
    irreducible_chain,
    measure,
    merge_positions,
    merge_weights,
    mirror_coupling,
    mirror_measure,
    oracle_convex_failure,
    oracle_convex_order_leq,
    oracle_increments,
    oracle_is_martingale,
    oracle_kernels,
    oracle_markov_check,
    oracle_left_curtain_rows,
    oracle_left_monotone,
    oracle_path_measure,
    oracle_path_weight_at,
    oracle_paths,
    oracle_put_gap,
    oracle_running_strong_order,
    oracle_shadow,
    oracle_strong_order,
    oracle_verify,
    outcome,
    random_marginal_chain,
    random_pair,
    signed_weights,
)

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestPathMeasure:
    def test_merging_and_sorting(self):
        P = PathMeasure(1, [((1, 2), F(1, 4)), ((0, 0), F(1, 2)), ((1, 2), F(1, 4))])
        assert P.paths == (((F(0), F(0)), F(1, 2)), ((F(1), F(2)), F(1, 2)))

    def test_booleans_rejected(self):
        with pytest.raises(TypeError, match="not a rational"):
            PathMeasure(1, [((True, 0), 1)])
        with pytest.raises(TypeError, match="not a rational"):
            PathMeasure(1, [((0, 0), True)])

    @pytest.mark.parametrize("n", [-1, -5, True, 1.0, "1", None])
    def test_step_count_must_be_a_nonnegative_int(self, n):
        with pytest.raises(ValueError, match="step count must be a nonnegative integer"):
            PathMeasure(n, [])

    def test_str_writes_plain_values(self):
        P = PathMeasure(1, [((1, "-2/3"), F(1, 4)), ((0, F(1, 2)), F(3, 4))])
        assert str(P) == "3/4*d(0, 1/2) + 1/4*d(1, -2/3)"
        assert str(PathMeasure(0, [((5,), 1)])) == "1*d(5)"
        assert str(PathMeasure(2)) == "0"

    def test_marginal_index_out_of_range(self):
        with pytest.raises(IndexError, match="^marginal index 2 out of range$"):
            PathMeasure(1, [((0, 0), 1)]).marginal(2)

    def test_projection_needs_a_coordinate(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            PathMeasure(1, [((0, 0), 1)]).project([])

    def test_projection_index_out_of_range(self):
        with pytest.raises(IndexError, match="^coordinate index 2 out of range$"):
            PathMeasure(1, [((0, 0), 1)]).project([0, 2])

    def test_mixture_errors(self):
        with pytest.raises(ValueError, match="^mixture of nothing$"):
            PathMeasure.mixture([])
        with pytest.raises(ValueError, match="^mixture components must share the step count$"):
            PathMeasure.mixture([(PathMeasure(1, [((0, 0), 1)]), 1), (PathMeasure(2, [((0, 0, 0), 1)]), 1)])

    @pytest.mark.parametrize(
        "path, pointer, message",
        [
            (["0", "1"], "c/paths/0", "path must be an object with 'x' and 'w'"),
            ({"x": "0", "w": "1"}, "c/paths/0/x", "must be an array of rationals"),
            ({"x": ["0", "1"], "w": "0"}, "c/paths/0/w", "weight must be positive, got 0"),
            ({"x": ["0", "1"], "w": "-1/2"}, "c/paths/0/w", "weight must be positive, got -1/2"),
        ],
        ids=["not-an-object", "x-not-an-array", "zero-weight", "negative-weight"],
    )
    def test_from_json_names_a_bad_path(self, path, pointer, message):
        with pytest.raises(SchemaError) as info:
            PathMeasure.from_json({"n": 1, "paths": [path]}, "c")
        assert (info.value.pointer, info.value.message) == (pointer, message)

    def test_from_json_paths_must_be_an_array(self):
        with pytest.raises(SchemaError) as info:
            PathMeasure.from_json({"n": 1, "paths": {"x": ["0", "1"], "w": "1"}}, "c")
        assert (info.value.pointer, info.value.message) == ("c/paths", "must be an array")

    def test_marginals_and_projection(self, rigid_marginals):
        P = left_monotone_multistep(rigid_marginals)
        assert P.marginal(0) == rigid_marginals[0]
        assert P.project((0, 2)) == PathMeasure(
            1, [((0, -2), F(1, 4)), ((0, 0), F(1, 2)), ((0, 2), F(1, 4))]
        )
        assert P.project((0, 1, 2)) == P

    def test_json_round_trip(self):
        P = PathMeasure(2, [((0, F(-1, 2), 1), F(1, 3))])
        assert PathMeasure.from_json(json.loads(json.dumps(P.to_json()))) == P

    @given(
        st.integers(0, 2).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.tuples(*[st.integers(-2, 2)] * (n + 1)),
                    st.fractions(min_value=F(1, 4), max_value=F(2), max_denominator=4),
                ),
                max_size=6,
            ).map(lambda paths: PathMeasure(n, paths))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_weight_at_equals_the_scan(self, P):
        queries = [()] + [p for p, _ in P.paths]
        queries += [p[:-1] + (p[-1] + d,) for p, _ in P.paths for d in (F(-1, 2), F(1, 2))]
        queries += [p[:-1] for p, _ in P.paths] + [(F(3),) * (P.n + 1), (F(-3),) * (P.n + 1)]
        for coords in queries:
            assert P.weight_at(coords) == oracle_path_weight_at(P, coords)

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,
            pytest.param(
                '{"n": 0, "paths": [{"x": [%s], "w": 1}]}' % ("1" * (DIGIT_LIMIT + 1)),
                marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit"),
            ),
        ],
        ids=["deep", "long-integer"],
    )
    def test_unreadable_text_is_a_schema_error(self, text):
        with pytest.raises(SchemaError, match="invalid JSON") as info:
            _json_from_text(text, "")
        assert info.value.pointer == ""


@st.composite
def path_lists(draw, weights, lengths=st.just(0)):
    """(n, paths) with n in {0, 1, 2}; a path has n + 1 + draw(lengths) coordinates."""
    n = draw(st.integers(0, 2))
    paths = [
        (draw(st.lists(merge_positions, min_size=size, max_size=size)), draw(weights))
        for size in draw(st.lists(lengths.map(lambda e: n + 1 + e), max_size=8))
    ]
    return n, paths


class TestPathMergeAgainstDictOracle:
    """The constructor's sorted merge against the dict merge it replaced."""

    @given(path_lists(merge_weights))
    @settings(max_examples=150, deadline=None)
    def test_paths_equal_the_oracle(self, case):
        n, paths = case
        assert PathMeasure(n, paths).paths == oracle_paths(n, paths)

    @given(path_lists(signed_weights, st.sampled_from([0, 0, 0, -1, 1])))
    @settings(max_examples=150, deadline=None)
    def test_first_error_raises_as_the_oracle(self, case):
        n, paths = case
        assert outcome(lambda: PathMeasure(n, paths).paths) == outcome(oracle_paths, n, paths)

    def test_messages_name_the_path_by_its_values(self):
        with pytest.raises(NegativeWeight, match=r"^path \(0, 1/2\) has negative weight -1$"):
            PathMeasure(1, [((0, 1), 1), ((0, "2/4"), -1)])
        with pytest.raises(ValueError, match=r"^path \(0, 1, 2\) does not have 2 coordinates$"):
            PathMeasure(1, [((0, 1, 2), 1)])

    def test_no_coordinate_is_hashed(self):
        P = PathMeasure(1, [((Unhashable(1), Unhashable(1, 2)), 1), ((Unhashable(1), Unhashable(2, 4)), 1)])
        assert P.paths == (((F(1), F(1, 2)), F(2)),)


class TestMartingaleCheck:
    def test_positive_case(self, rigid_marginals):
        P = left_monotone_multistep(rigid_marginals)
        ok, witness = is_martingale(P)
        assert ok and witness is None

    def test_drift_detected_with_witness(self):
        P = PathMeasure(1, [((0, 1), F(1, 2)), ((0, 2), F(1, 2))])
        ok, witness = is_martingale(P)
        assert not ok and witness == (F(0),)

    def test_nonunique_extensions_are_martingales(self, nonunique_family):
        _, p_left, p_right = nonunique_family
        assert is_martingale(p_left)[0] and is_martingale(p_right)[0]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(1, 3),
        st.sampled_from(list(KernelPolicy)),
        st.sampled_from(["none", "weight", "coordinate"]),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([F(-1, 2), F(1, 3), F(2), F(-1, 7)]),
    )
    def test_witness_equals_drift_oracle(self, seed, steps, policy, kind, i, t, delta):
        # constructed couplings, and copies with one path's weight or one
        # coordinate shifted, which may drift at that path's histories
        chain = random_marginal_chain(random.Random(seed), steps, max_support=5, start_atoms=3)
        paths = [(list(p), w) for p, w in left_monotone_multistep(chain, policy).paths]
        coords, w = paths[i % len(paths)]
        if kind == "weight":
            paths[i % len(paths)] = (coords, w * (1 + delta))
        elif kind == "coordinate":
            coords[t % len(coords)] += delta
        P = PathMeasure(steps, paths)
        assert is_martingale(P) == oracle_is_martingale(P)
        assert kind != "none" or is_martingale(P) == (True, None)


class TestMarkovAgainstDictOracle:
    """`markov_check` sorts the (state, law) pairs of each date; the oracle
    keys the normalized kernels of `oracle_kernels` by state."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(1, 3),
        st.sampled_from(list(KernelPolicy)),
        st.booleans(),
    )
    def test_verdict_equals_oracle(self, seed, steps, policy, reverse):
        # built couplings and their time reversals, which are often not Markov
        chain = random_marginal_chain(random.Random(seed), steps, max_support=5, start_atoms=3)
        P = left_monotone_multistep(chain, policy)
        if reverse:
            P = PathMeasure(steps, ((p[::-1], w) for p, w in P.paths))
        spoiled = PathMeasure(steps, ((tuple(map(Unhashable, p)), w) for p, w in P.paths))
        assert markov_check(P) == markov_check(spoiled) == oracle_markov_check(P)

    def test_both_verdicts_occur(self):
        verdicts = Counter()
        for seed in range(40):
            chain = random_marginal_chain(random.Random(seed), 2, max_support=5, start_atoms=3)
            P = left_monotone_multistep(chain)
            for Q in (P, PathMeasure(2, ((p[::-1], w) for p, w in P.paths))):
                verdicts[markov_check(Q)] += 1
                assert markov_check(Q) == oracle_markov_check(Q)
        assert verdicts[True] and verdicts[False]


class TestLeftCurtainOneStep:
    def test_two_atom_example(self, curtain_gap_marginals):
        mu0, _, mu2 = curtain_gap_marginals
        lc = left_curtain_one_step(mu0, mu2)
        assert lc == PathMeasure(
            1,
            [
                ((-1, -4), F(1, 8)),
                ((-1, 0), F(3, 8)),
                ((1, -4), F(1, 8)),
                ((1, 0), F(1, 8)),
                ((1, 4), F(1, 4)),
            ],
        )

    def test_identity_when_marginals_equal(self):
        mu = measure([(0, F(1, 2)), (2, F(1, 2))])
        assert left_curtain_one_step(mu, mu) == PathMeasure(
            1, [((0, 0), F(1, 2)), ((2, 2), F(1, 2))]
        )

    def test_requires_convex_order(self):
        message = "marginals 0 and 1 are not in convex order: barycenters 0 vs 1"
        assert outcome(left_curtain_one_step, DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1)) == (
            NotInConvexOrder, message
        )

    def test_support_has_no_crossings(self):
        rng = random.Random(71)
        for _ in range(40):
            chain = random_marginal_chain(rng, 1, max_support=6)
            lc = left_curtain_one_step(chain[0], chain[1])
            ok, witness = is_left_monotone_set(SupportSet.of(lc))
            assert ok, witness
            assert lc.marginal(0) == chain[0] and lc.marginal(1) == chain[1]
            assert is_martingale(lc)[0]


class TestMultistepConstruction:
    def test_needs_two_marginals(self):
        with pytest.raises(ValueError, match="^need at least two marginals$"):
            left_monotone_multistep([DiscreteMeasure.dirac(0)])

    def test_rigid_instance_reproduced(self, rigid_marginals):
        P = left_monotone_multistep(rigid_marginals)
        assert P == PathMeasure(
            2,
            [
                ((0, -1, -2), F(1, 4)),
                ((0, -1, 0), F(1, 4)),
                ((0, 1, 0), F(1, 4)),
                ((0, 1, 2), F(1, 4)),
            ],
        )

    def test_curtain_gap_projections(self, curtain_gap_marginals):
        P = left_monotone_multistep(curtain_gap_marginals)
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

    def test_nonmarkov_instance(self, nonmarkov_marginals):
        P = left_monotone_multistep(nonmarkov_marginals)
        assert P == PathMeasure(
            2,
            [
                ((0, 0, 0), F(1, 2)),
                ((1, 0, -1), F(1, 8)),
                ((1, 0, 1), F(1, 8)),
                ((1, 2, 2), F(1, 4)),
            ],
        )
        assert not markov_check(P)

    def test_single_step_agrees_with_left_curtain(self):
        rng = random.Random(73)
        for _ in range(20):
            chain = random_marginal_chain(rng, 1, max_support=6)
            # left_curtain_one_step is this construction; the oracle folds hull shadows
            assert left_curtain_one_step(*chain) == oracle_path_measure(1, oracle_left_curtain_rows(*chain))

    def test_projections_policy_invariant(self):
        rng = random.Random(79)
        for _ in range(15):
            chain = random_marginal_chain(rng, rng.choice([2, 3]), max_support=5)
            P1 = left_monotone_multistep(chain, KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS)
            P2 = left_monotone_multistep(chain, KernelPolicy.LP_FEASIBLE)
            for t in range(1, len(chain)):
                assert P1.project((0, t)) == P2.project((0, t))
                assert P1.marginal(t) == chain[t] and P2.marginal(t) == chain[t]

    def test_construction_verifies(self):
        rng = random.Random(83)
        for _ in range(15):
            chain = random_marginal_chain(rng, rng.choice([2, 3]), max_support=5)
            for policy in KernelPolicy:
                P = left_monotone_multistep(chain, policy)
                assert verify_left_monotone(P, chain) == (True, None), oracle_verify(P, chain)

    def test_support_is_left_monotone(self):
        rng = random.Random(89)
        for _ in range(15):
            chain = random_marginal_chain(rng, 2, max_support=5)
            P = left_monotone_multistep(chain)
            ok, witness = is_left_monotone_set(SupportSet.of(P))
            assert ok, witness

    def test_path_cap_enforced(self, rigid_marginals):
        # increments of 2 and 3 atoms: the worst case is the 6 paths there are
        for policy in KernelPolicy:
            assert len(left_monotone_multistep(rigid_marginals, policy, max_paths=6)) == 4
            with pytest.raises(PathCountExceeded, match="worst-case path count 6 exceeds the cap 5"):
                left_monotone_multistep(rigid_marginals, policy, max_paths=5)
            with pytest.raises(PathCountExceeded, match="worst-case path count"):
                left_monotone_multistep(rigid_marginals, policy, max_paths=2)

    def test_requires_convex_order(self):
        with pytest.raises(NotInConvexOrder):
            left_monotone_multistep(
                [DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1)]
            )


class TestVerify:
    def test_marginal_mismatch_raises(self, rigid_marginals):
        P = PathMeasure(2, [((0, 0, 0), 1)])
        with pytest.raises(MarginalMismatch):
            verify_left_monotone(P, rigid_marginals)

    def test_marginal_count_must_match_the_step_count(self, rigid_marginals):
        P = left_monotone_multistep(rigid_marginals)
        with pytest.raises(MarginalMismatch, match="^marginal count does not match the step count$"):
            verify_left_monotone(P, rigid_marginals[:2])

    def test_non_martingale_raises(self):
        marginals = [
            DiscreteMeasure.dirac(0),
            measure([(-1, F(1, 2)), (1, F(1, 2))]),
        ]
        P = PathMeasure(1, [((0, -1), F(1, 2)), ((0, 1), F(1, 2))])
        bad = PathMeasure(1, [((0, -1), F(1, 4)), ((0, 1), F(3, 4))])
        assert verify_left_monotone(P, marginals)[0]
        with pytest.raises(MarginalMismatch):
            verify_left_monotone(bad, marginals)
        lopsided = [
            measure([(-1, F(1, 4)), (1, F(3, 4))]),
            measure([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]),
        ]
        drifting = PathMeasure(
            1,
            [((-1, -1), F(1, 4)), ((1, 0), F(1, 2)), ((1, 1), F(1, 4))],
        )
        with pytest.raises(NotMartingale):
            verify_left_monotone(drifting, lopsided)

    def test_dirac_start_makes_everything_left_monotone(self, nonunique_family):
        marginals, p_left, p_right = nonunique_family
        mixture = PathMeasure.mixture([(p_left, F(1, 2)), (p_right, F(1, 2))])
        for P in (p_left, p_right, mixture):
            ok, _ = verify_left_monotone(P, marginals)
            assert ok

    def test_right_monotone_transport_fails_verification(self, nonmarkov_marginals):
        mirrored = [mirror_measure(mu) for mu in nonmarkov_marginals]
        right = mirror_coupling(left_monotone_multistep(mirrored))
        left = left_monotone_multistep(nonmarkov_marginals)
        assert right != left
        assert is_martingale(right)[0]
        ok, first = verify_left_monotone(right, nonmarkov_marginals)
        assert not ok
        assert (ok, first) == oracle_verify(right, nonmarkov_marginals)


class TestStrongOrder:
    def test_named_instances(self, curtain_gap_marginals):
        assert not strong_order_holds(curtain_gap_marginals)
        assert strong_order_holds(curtain_gap_marginals[:2])
        widening = [
            DiscreteMeasure.dirac(0),
            measure([(-1, F(1, 2)), (1, F(1, 2))]),
            measure([(-2, F(1, 2)), (2, F(1, 2))]),
        ]
        assert strong_order_holds(widening)

    def test_requires_convex_order(self):
        # The check of the chain stays in the public function; only the
        # command line, whose construction has checked it, skips it.
        message = "marginals 1 and 2 are not in convex order: barycenters 0 vs 1"
        chain = [DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(1)]
        assert outcome(strong_order_holds, chain) == (NotInConvexOrder, message)

    def test_equivalence_with_curtain_projections(self):
        rng = random.Random(97)
        holds = fails = 0
        while holds < 8 or fails < 8:
            chain = random_marginal_chain(rng, 2, max_support=5)
            P = left_monotone_multistep(chain)
            projections_match = all(
                P.project((0, t)) == left_curtain_one_step(chain[0], chain[t])
                for t in range(1, len(chain))
            )
            claim = strong_order_holds(chain)
            assert claim == projections_match
            if claim:
                holds += 1
            else:
                fails += 1


class TestAgainstOracleShadows:
    """Constructions against shadows from the interval-search fold of conftest."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 3))
    def test_prefix_images_and_strong_order(self, seed, steps):
        # about one chain in five has prefix shadows out of convex order
        chain = random_marginal_chain(random.Random(seed), steps, max_support=6, start_atoms=3)
        mu0 = chain[0]
        couplings = [left_monotone_multistep(chain, policy) for policy in KernelPolicy]
        curtains = [left_curtain_one_step(mu0, nu) for nu in chain[1:]]
        strong = True
        for a in mu0.support:
            prefix = mu0.restrict(Interval.at_most(a))
            obstructed = prefix
            plain = []
            for t, nu in enumerate(chain[1:], start=1):
                obstructed = oracle_shadow(obstructed, nu)[0]
                plain.append(oracle_shadow(prefix, nu)[0])
                for P in couplings:
                    assert P.restrict_first(a).marginal(t) == obstructed
                assert curtains[t - 1].restrict_first(a).marginal(1) == plain[-1]
            strong = strong and all(map(oracle_convex_order_leq, plain, plain[1:]))
        assert strong_order_holds(chain) == strong
        for P in couplings:
            assert verify_left_monotone(P, chain) == (True, None)


def read_increments(marginals):
    """`coupling._increments` read as Fractions, in the form of
    `oracle_increments`, after checking that every increment is sorted by
    index, with positive weights in lowest terms."""
    positions = [mu.support for mu in marginals]
    out = []
    for (x, _), steps in zip(marginals[0], _increments(marginals)):
        ys, read = [x], []
        for t, (upper, takes) in enumerate(steps, start=1):
            assert [k for k, _, _ in upper] == sorted({k for k, _, _ in upper})
            assert all(n > 0 and d > 0 and math.gcd(n, d) == 1 for _, n, d in upper)
            kernels = {(y,): [(positions[t][k], F(w, e)) for k, w in pieces] for y, (pieces, e) in zip(ys, takes)}
            read.append((measure((positions[t][k], F(n, d)) for k, n, d in upper), kernels))
            ys = [positions[t][k] for k, _, _ in upper]
        out.append(read)
    return out


def couple_by(policy):
    """The one-step coupling of consecutive increments that `policy` asks
    for: the first feasible point for LP_FEASIBLE, else the Left-Curtain
    coupling from hull shadows."""
    if policy is KernelPolicy.LP_FEASIBLE:
        return coupling._feasible_martingale_coupling
    return lambda lower, upper: oracle_path_measure(1, oracle_left_curtain_rows(lower, upper))


def expected_outcome(chain, policy):
    """What `left_monotone_multistep(chain, policy)` returns or raises, from
    the oracles: the first pair out of convex order in the words of
    `oracle_convex_failure`, else the transport recomputed from hull
    shadows."""
    for t in range(1, len(chain)):
        failure = oracle_convex_failure(chain[t - 1], chain[t])
        if failure:
            return NotInConvexOrder, f"marginals {t - 1} and {t} are not in convex order: {failure}"
    return oracle_left_monotone(chain, couple_by(policy))


# A grid of 40 atoms and two spreads (40 / 52 / 75 atoms, strong order
# holds, so every prefix is checked), an irreducible chain of 4 / 6 / 10
# atoms, and three random chains of up to 7 atoms.
CHAINS = {
    "grid": grid_chain(random.Random(45), 40),
    "irreducible": irreducible_chain(random.Random(4610), (4, 6, 10)),
    **{f"random-{seed}": random_marginal_chain(random.Random(seed), 3, max_support=7, start_atoms=4)
       for seed in (5, 6, 7)},
}


class TestFoldIsTheIncrementCoupling:
    """The integer increments and takes, read as Fractions, against those of
    the Fraction residual; the default policy couples consecutive increments
    by these takes, which must be the Left-Curtain coupling of the pair."""

    @pytest.mark.parametrize("name", CHAINS)
    def test_named_chains(self, name):
        assert read_increments(CHAINS[name]) == oracle_increments(CHAINS[name])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 3))
    def test_fold_rows_are_left_curtain_of_the_pair(self, seed, steps):
        chain = random_marginal_chain(random.Random(seed), steps, max_support=7, start_atoms=4)
        increments = read_increments(chain)
        assert increments == oracle_increments(chain)
        for (x, q), steps in zip(chain[0], increments):
            lower = DiscreteMeasure.dirac(x, q)
            for upper, kernels in steps:
                # the takes are sorted, positive and distinct: a measure's atoms
                taken = {history: tuple(pieces) for history, pieces in kernels.items()}
                for expected in (
                    left_curtain_one_step(lower, upper),
                    PathMeasure(1, oracle_left_curtain_rows(lower, upper)),
                ):
                    assert taken == {h: k.atoms for h, k in oracle_kernels(expected, 1).items()}
                lower = upper


class TestIncrementsIncrease:
    """Each atom's consecutive increments are in convex order for every input
    (the Jensen argument of `_increments`), so the construction sweeps only
    the chain of marginals: the invariant against `oracle_convex_failure`
    on Fraction measures, and the count of sweeps."""

    @staticmethod
    def assert_increasing(chain):
        for (x, q), steps in zip(chain[0], read_increments(chain)):
            lower = DiscreteMeasure.dirac(x, q)
            for upper, _ in steps:
                assert oracle_convex_failure(lower, upper) is None
                lower = upper

    @pytest.mark.parametrize(
        "chain",
        [*CHAINS.values(), grid_chain(random.Random(8), 8), grid_chain(random.Random(40), 40)],
        ids=[*CHAINS, "grid-8", "grid-40"],
    )
    def test_named_chains(self, chain):
        self.assert_increasing(chain)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 3))
    def test_random_chains(self, seed, steps):
        self.assert_increasing(random_marginal_chain(random.Random(seed), steps, max_support=7, start_atoms=4))

    @pytest.mark.parametrize("policy", KernelPolicy, ids=lambda policy: policy.value)
    def test_only_the_chain_check_sweeps(self, monkeypatch, policy):
        # 40 / 60 / 78 atoms: one sweep per pair of marginals, none per atom and date
        chain = grid_chain(random.Random(40), 40)
        assert [len(mu) for mu in chain] == [40, 60, 78]
        calls = []
        for module in (measure_module, coupling):  # `coupling` binds its own `_put_sweep`
            def counted(*args, original=module._put_sweep):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(module, "_put_sweep", counted)
        left_monotone_multistep(chain, policy)
        assert len(calls) == 2


class TestGridChainAgainstHullOracle:
    """The grid of `CHAINS`, each construction against its recomputation
    from hull shadows in about a second."""

    chain = CHAINS["grid"]

    def test_left_curtain_policy(self):
        assert left_monotone_multistep(self.chain) == oracle_left_monotone(self.chain, couple_by(None))

    def test_lp_feasible_policy(self):
        P = left_monotone_multistep(self.chain, KernelPolicy.LP_FEASIBLE)
        assert P == oracle_left_monotone(self.chain, couple_by(KernelPolicy.LP_FEASIBLE))

    def test_strong_order(self):
        assert strong_order_holds(self.chain) == oracle_strong_order(self.chain)

    def test_verify(self):
        # the records read only the (0, t) projections, which the policies share
        P = left_monotone_multistep(self.chain)
        assert verify_left_monotone(P, self.chain) == oracle_verify(P, self.chain)


class TestNamedChainsAgainstOracles:
    """The chains of `CHAINS` but the grid against the oracles as the grid
    is above, and every chain reversed and at every path cap."""

    @pytest.mark.parametrize("policy", KernelPolicy, ids=lambda policy: policy.value)
    @pytest.mark.parametrize("name", [name for name in CHAINS if name != "grid"])
    def test_coupling_strong_order_and_verify(self, name, policy):
        chain = CHAINS[name]
        P = left_monotone_multistep(chain, policy)
        assert P == oracle_left_monotone(chain, couple_by(policy))
        assert strong_order_holds(chain) == oracle_strong_order(chain)
        assert verify_left_monotone(P, chain) == oracle_verify(P, chain) == (True, None)
        mirrored = mirror_coupling(left_monotone_multistep([mirror_measure(mu) for mu in chain], policy))
        assert verify_left_monotone(mirrored, chain) == oracle_verify(mirrored, chain)

    @pytest.mark.parametrize("name", CHAINS)
    def test_reversed_chain(self, name):
        chain = CHAINS[name][::-1]
        for policy in KernelPolicy:
            assert outcome(left_monotone_multistep, chain, policy) == expected_outcome(chain, policy)
        assert outcome(strong_order_holds, chain) == outcome(left_monotone_multistep, chain)

    @pytest.mark.parametrize("name", CHAINS)
    def test_every_path_cap(self, name):
        chain = CHAINS[name]
        estimate = sum(math.prod(len(upper) for upper, _ in steps) for steps in oracle_increments(chain))
        for policy in KernelPolicy:
            built = oracle_left_monotone(chain, couple_by(policy))
            caps = range(1, estimate + 2) if policy is KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS else (estimate - 1, estimate)
            for cap in caps:
                expected = (PathCountExceeded, f"worst-case path count {estimate} exceeds the cap {cap}")
                assert outcome(left_monotone_multistep, chain, policy, cap) == (expected if cap < estimate else built)


class TestNoPositionIsHashed:
    """`DiscreteMeasure` and `PathMeasure` take positions and weights that
    cannot be hashed, and so do the constructions, `strong_order_holds` and
    the checks of a coupling."""

    @pytest.mark.parametrize("seed", range(6))
    def test_unhashable_positions_and_weights(self, seed):
        chain = random_marginal_chain(random.Random(seed), 3, max_support=7, start_atoms=4)
        unhashable = [DiscreteMeasure((Unhashable(x), Unhashable(w)) for x, w in mu) for mu in chain]
        assert all(type(x) is Unhashable for mu in unhashable for x, _ in mu)
        assert left_monotone_multistep(unhashable) == left_monotone_multistep(chain)
        assert left_curtain_one_step(unhashable[0], unhashable[2]) == left_curtain_one_step(chain[0], chain[2])
        assert free_monotone_transport(unhashable[0], unhashable[3], 2) == free_monotone_transport(chain[0], chain[3], 2)
        assert strong_order_holds(unhashable) == strong_order_holds(chain)

    def test_checks_take_unhashable_positions(self):
        # the checks of built and mirrored couplings, and a drifting copy
        records = 0
        for seed in range(6):
            chain = random_marginal_chain(random.Random(seed), 3, max_support=7, start_atoms=4)
            unhashable = [DiscreteMeasure((Unhashable(x), w) for x, w in mu) for mu in chain]
            built = left_monotone_multistep(chain)
            mirrored = mirror_coupling(left_monotone_multistep([mirror_measure(mu) for mu in chain]))
            (p, w), *rest = built.paths
            drifting = PathMeasure(3, [(p[:-1] + (p[-1] + 1,), w), *rest])
            for P in (built, mirrored, drifting):
                spoiled = PathMeasure(P.n, ((tuple(map(Unhashable, p)), w) for p, w in P.paths))
                assert all(type(c) is Unhashable for p, _ in spoiled.paths for c in p)
                assert is_martingale(spoiled) == is_martingale(P)
                assert markov_check(spoiled) == markov_check(P)
                assert binomial_check(spoiled) == binomial_check(P) == all(
                    len(kernel) <= 2 for t in range(1, 4) for kernel in oracle_kernels(P, t).values()
                )
                if P is not drifting:
                    assert verify_left_monotone(spoiled, unhashable) == verify_left_monotone(P, chain)
                    records += not verify_left_monotone(P, chain)[0]
            assert not is_martingale(drifting)[0]
        assert records >= 1

    def test_default_policy_builds_no_measure(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return DiscreteMeasure(*args)

        monkeypatch.setattr(coupling, "DiscreteMeasure", counted)
        chain = CHAINS["grid"]
        left_monotone_multistep(chain)
        strong_order_holds(chain)
        assert built == []
        left_monotone_multistep(chain[:2], KernelPolicy.LP_FEASIBLE)
        assert built  # the LP policy builds its increments' measures in its own branch


class TestIndexWalk:
    """The construction walks index tuples in increasing order and takes its
    finished paths as they are: the result equals the constructor's merge of
    its own paths, each coordinate is its marginal's support object, no
    Fraction is compared or hashed, and paths out of order raise.  A probe
    re-solved on the same marginals hashes no measure again either."""

    @staticmethod
    def assert_taken_as_built(P, chain):
        assert P == PathMeasure(P.n, list(P.paths))
        supports = [mu.support for mu in chain]
        assert all(c is xs[bisect_left(xs, c)] for p, _ in P.paths for c, xs in zip(p, supports))

    @pytest.mark.parametrize("policy", KernelPolicy, ids=lambda policy: policy.value)
    @pytest.mark.parametrize("name", CHAINS)
    def test_named_chains(self, name, policy):
        self.assert_taken_as_built(left_monotone_multistep(CHAINS[name], policy), CHAINS[name])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 3), st.sampled_from(list(KernelPolicy)))
    def test_random_chains(self, seed, steps, policy):
        chain = random_marginal_chain(random.Random(seed), steps, max_support=7, start_atoms=4)
        self.assert_taken_as_built(left_monotone_multistep(chain, policy), chain)

    def test_grid_compares_and_hashes_no_fraction(self, monkeypatch):
        calls = Counter()
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
            def counted(*args, name=name, original=getattr(F, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(F, name, counted)
        left_monotone_multistep(CHAINS["grid"])
        monkeypatch.undo()
        assert dict(calls) == {}

    def test_a_repeated_probe_hashes_no_measure_and_no_path(self, monkeypatch):
        """The second solve and dual on the same marginals hash no measure (the
        hash is kept) and a Fraction only for the certificate's own dict keys:
        phi's points and the prefixes of H's keys, not the paths."""
        chain = irreducible_chain(random.Random(4610), (3, 4, 5))
        reward = left_tail_put_reward(chain[0].support[1], 2, chain[2].support[2])
        solution = solve_primal(chain, reward)
        extract_dual(solution.program, solution)
        hashed, fields_read = Counter(), Counter()

        def fraction_hash(value, original=F.__hash__):
            hashed["Fraction"] += 1
            return original(value)

        def values(value, original=measure_module._Value._values):
            fields_read[type(value).__name__] += 1
            return original(value)

        monkeypatch.setattr(F, "__hash__", fraction_hash)
        monkeypatch.setattr(measure_module._Value, "_values", values)
        solution = solve_primal(chain, reward)
        certificate = extract_dual(solution.program, solution)
        monkeypatch.undo()
        assert fields_read["DiscreteMeasure"] == 0
        keys = sum(map(len, certificate.phi.values())) + sum(len(prefix) for _, prefix in certificate.H)
        assert 0 < hashed["Fraction"] <= keys < len(solution.program.paths)

        grid = st.sampled_from([F(k, 2) for k in range(-4, 5)])

        @settings(max_examples=300, deadline=None)
        @given(st.lists(grid, min_size=1, max_size=4), grid, grid, st.data())
        def put_probe_is_its_formula(path, a, b, data):
            t = data.draw(st.integers(0, len(path) - 1))
            value = left_tail_put_reward(a, t, b)(tuple(path))
            assert type(value) is F and value == -max(path[t] - b, 0) * (path[0] <= a)

        put_probe_is_its_formula()

    def test_paths_out_of_order_raise(self, monkeypatch):
        take = _Residual.take_ints

        def reversed_take(residual, *args):
            pieces, e = take(residual, *args)
            return pieces[::-1], e

        monkeypatch.setattr(_Residual, "take_ints", reversed_take)
        with pytest.raises(AssertionError, match="^the construction's paths are not in increasing index order$"):
            left_monotone_multistep(CHAINS["grid"])


class TestGridChainBytes:
    """An 80-atom grid and two spreads (80 / 113 / 146 atoms), beyond the
    sizes of the goldens: each policy's coupling against its recomputation
    from hull shadows, and its JSON bytes against their sha256."""

    chain = grid_chain(random.Random(80), 80)

    @pytest.mark.parametrize(
        "policy, couple, digest",
        [
            (
                KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS,
                lambda lower, upper: oracle_path_measure(1, oracle_left_curtain_rows(lower, upper)),
                "19cd5c761666d8633a10243ab9254338b497f0295dc2c50fb3326a9fe06fd5c9",
            ),
            (
                KernelPolicy.LP_FEASIBLE,
                coupling._feasible_martingale_coupling,
                "bd3da99bdf209c82c03c9f551871c08f5ec896463907cb9ca966bb50a1aa15ad",
            ),
        ],
        ids=["left-curtain", "lp-feasible"],
    )
    def test_coupling_and_bytes(self, policy, couple, digest):
        P = left_monotone_multistep(self.chain, policy)
        assert P == oracle_left_monotone(self.chain, couple)
        assert hashlib.sha256(json.dumps(P.to_json()).encode()).hexdigest() == digest

    def test_left_monotone_output_on_a_400_atom_grid(self, tmp_path, monkeypatch, capsys):
        # 400 / 574 / 780 atoms, 3505 paths: the JSON bytes of the command
        monkeypatch.chdir(tmp_path)
        files = [f"grid{t}.json" for t in range(3)]
        for name, mu in zip(files, grid_chain(random.Random(400), 400)):
            (tmp_path / name).write_text(json.dumps(mu.to_json()))
        assert main(["left-monotone", *files]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "4213c0406ac04d87ed4ea914c241195c517a92f5c99f2e2ed82ef2a8528c75fb"


class TestPerAtomChecksAgainstPrefixSums:
    """`strong_order_holds` and `verify_left_monotone` compare each atom's
    pieces; the oracles compare every prefix's sums."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 4))
    def test_strong_order_equals_prefix_oracles(self, seed, steps):
        # about one chain in four has prefix shadows out of convex order
        chain = random_marginal_chain(random.Random(seed), steps, max_support=7, start_atoms=4)
        assert strong_order_holds(chain) == oracle_running_strong_order(chain) == oracle_strong_order(chain)

    def test_first_mismatch_equals_oracle(self):
        rng = random.Random(107)
        chains = mismatches = 0
        while chains < 40:
            chain = random_marginal_chain(rng, rng.randint(1, 3), max_support=7, start_atoms=4)
            if len(chain[0]) < 2:
                continue
            chains += 1
            mirrored = mirror_coupling(left_monotone_multistep([mirror_measure(mu) for mu in chain]))
            optimizer = solve_primal(chain, lambda path: -path[0] * path[-1] ** 2).optimizer
            for P in (mirrored, feasible_transport(chain), optimizer):
                ok, first = verify_left_monotone(P, chain)
                assert (ok, first) == oracle_verify(P, chain)
                mismatches += not ok
        assert mismatches >= 30

    def test_large_grid_chain_with_strong_order(self):
        # 160 / 229 / 308 atoms: every prefix is compared
        chain = grid_chain(random.Random(45), 160)
        assert strong_order_holds(chain) is True
        assert oracle_running_strong_order(chain) is True

    @pytest.mark.parametrize("k, holds", [(200, False), (400, True), (1600, False)])
    def test_strong_order_at_size(self, k, holds):
        # strong order holds on the 400-atom grid, so every atom's takes are swept
        chain = grid_chain(random.Random(k), k)
        assert strong_order_holds(chain) is holds
        if k == 400:
            assert oracle_running_strong_order(chain) is holds


class TestFirstTwoCharacterizationsAgree:
    """A martingale coupling of the marginals has a support without crossings
    (`is_left_monotone_set`) exactly when its prefix images are the
    obstructed shadows (`verify_left_monotone`): both verdicts on the two
    constructions, `feasible_transport`, and the LP optimizers of a
    `left_tail_put_reward` probe and of its negation."""

    @staticmethod
    def verdicts(seed, steps):
        rng = random.Random(seed)
        chain = random_marginal_chain(rng, steps, max_support=4, start_atoms=4)
        t = rng.randint(1, steps)
        probe = left_tail_put_reward(rng.choice(chain[0].support), t, rng.choice(chain[t].support))
        couplings = [left_monotone_multistep(chain, policy) for policy in KernelPolicy]
        couplings.append(feasible_transport(chain))
        couplings += [solve_primal(chain, probe).optimizer, solve_primal(chain, lambda p: -probe(p)).optimizer]
        return [(is_left_monotone_set(SupportSet.of(P))[0], verify_left_monotone(P, chain)[0]) for P in couplings]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 2))
    def test_verdicts_agree(self, seed, steps):
        for crossing_free, images_match in self.verdicts(seed, steps):
            assert crossing_free == images_match

    @pytest.mark.parametrize("seed, steps, falses", [(0, 1, 0), (13, 1, 3), (20, 2, 3)])
    def test_both_verdicts_occur(self, seed, steps, falses):
        # the two verdicts agree on every coupling, False on some of two chains
        verdicts = self.verdicts(seed, steps)
        assert verdicts.count((False, False)) == falses
        assert verdicts.count((True, True)) == len(verdicts) - falses

    @pytest.mark.parametrize("k", [40, 80])
    @pytest.mark.parametrize("policy", list(KernelPolicy))
    def test_grid_constructions_and_their_mirror_images(self, k, policy):
        # the mirror image of a left-monotone coupling is right-monotone: it
        # crosses, and its first unmatched prefix image is named exactly
        chain = grid_chain(random.Random(k), k)
        P = left_monotone_multistep(chain, policy)
        assert (is_left_monotone_set(SupportSet.of(P))[0], verify_left_monotone(P, chain)[0]) == (True, True)
        mirrored, Q = [mirror_measure(mu) for mu in chain], mirror_coupling(P)
        ok, record = verify_left_monotone(Q, mirrored)
        assert (is_left_monotone_set(SupportSet.of(Q))[0], ok) == (False, False)
        a, t, image, expected = record
        i = mirrored[0].support.index(a)
        assert expected == obstructed_shadow(DiscreteMeasure(mirrored[0].atoms[: i + 1]), mirrored[1 : t + 1])
        assert image == Q.restrict_first(a).marginal(t) != expected


class TestOneWording:
    """Every convex-order error names the condition that fails in the words of
    `oracle_convex_failure` (Fractions): `decompose_step` and the chain
    check of the construction."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["spread", "reversed", "shrunk", "grown", "shifted", "random", "pc"]),
    )
    def test_checks_name_the_same_condition(self, seed, kind):
        mu, nu = random_pair(random.Random(seed), kind)

        def words(prefix, run, *args):
            """The words after `prefix` of the NotInConvexOrder that run raises,
            or None when it returns (a result here is never a tuple)."""
            got = outcome(run, *args)
            if not isinstance(got, tuple):
                return None
            assert got[0] is NotInConvexOrder and got[1].startswith(prefix)
            return got[1][len(prefix) :]

        failure = oracle_convex_failure(mu, nu)
        assert words("not in convex order: ", decompose_step, mu, nu) == failure
        assert words("marginals 0 and 1 are not in convex order: ", left_monotone_multistep, [mu, nu]) == failure
        assert words("marginals 1 and 2 are not in convex order: ", left_monotone_multistep, [mu, mu, nu]) == failure
        if failure is not None and failure.startswith("P_nu(k) < P_mu(k) first at k = "):
            # the named strike is the first grid point where the Fraction gap is negative
            grid, gap = oracle_put_gap(mu, nu)
            first = grid.index(F(words("not in convex order: ", decompose_step, mu, nu).rsplit(" ", 1)[1]))
            assert gap[first] < 0 and all(g >= 0 for g in gap[:first])


class TestFreeMonotone:
    def test_single_step_is_left_curtain(self, curtain_gap_marginals):
        mu0, _, mu2 = curtain_gap_marginals
        assert free_monotone_transport(mu0, mu2, 1) == left_curtain_one_step(mu0, mu2)

    def test_dirac_start_splits_last(self):
        mu0 = DiscreteMeasure.dirac(0)
        mun = measure([(-1, F(1, 2)), (1, F(1, 2))])
        P = free_monotone_transport(mu0, mun, 3)
        assert P == PathMeasure(
            3, [((0, 0, 0, -1), F(1, 2)), ((0, 0, 0, 1), F(1, 2))]
        )

    def test_identity_prefix_then_curtain(self, curtain_gap_marginals):
        mu0, _, mu2 = curtain_gap_marginals
        P = free_monotone_transport(mu0, mu2, 2)
        for t in range(2):
            assert P.marginal(t) == mu0
        assert P.project((1, 2)) == left_curtain_one_step(mu0, mu2)
        assert all(p[0] == p[1] for p, _ in P.paths)


class TestKernelDiagnostics:
    def test_identity_coupling_is_markov_and_binomial(self):
        mu = measure([(0, F(1, 2)), (1, F(1, 2))])
        P = left_curtain_one_step(mu, mu)
        assert markov_check(P) and binomial_check(P)

    def test_binomial_counts_kernel_branches(self):
        P = PathMeasure(
            1,
            [((0, -1), F(1, 4)), ((0, 0), F(1, 2)), ((0, 1), F(1, 4))],
        )
        assert not binomial_check(P)


@pytest.mark.parametrize(
    "check, verdict",
    [
        (is_martingale, (True, None)),
        (markov_check, True),
        (binomial_check, True),
        (lambda P: is_left_monotone_set(SupportSet.of(P)), (True, None)),
        (lambda P: is_nondegenerate_set(SupportSet.of(P)), (True, None)),
    ],
    ids=["martingale", "markov", "binomial", "left-monotone-set", "nondegenerate-set"],
)
def test_checks_of_an_empty_measure_do_not_walk_its_dates(check, verdict):
    start = time.perf_counter()
    assert check(PathMeasure(10**7, [])) == verdict
    assert time.perf_counter() - start < 1
