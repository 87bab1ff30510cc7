import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    Interval,
    NotInConvexOrder,
    StepDecomposition,
    add,
    build_program,
    convex_order_leq,
    decompose_step,
    effective_domain_contains,
    find_improving_competitor,
    free_monotone_transport,
    free_polar_test,
    left_monotone_multistep,
    polar_test,
    solve_free,
    solve_primal,
)
from leftcurtain import decomposition, lpsolver, simplex
from leftcurtain.cli import main
from leftcurtain.decomposition import decompose_chain
from leftcurtain import measure as measure_module

from conftest import (
    dense,
    grid_chain,
    measure,
    oracle_competitor_lp,
    oracle_component_of_point,
    oracle_decompose_step,
    oracle_diagonal_intervals,
    oracle_free_chargeable,
    oracle_free_paths,
    outcome,
    random_marginal_chain,
    random_measure,
)


class TestDecomposeStep:
    def test_single_component(self):
        d = decompose_step(
            DiscreteMeasure.dirac(0), measure([(-1, F(1, 2)), (1, F(1, 2))])
        )
        assert d.diagonal.is_zero
        assert len(d.components) == 1
        comp = d.components[0]
        assert comp.I == Interval.open(-1, 1)
        assert comp.J == Interval.closed(-1, 1)

    def test_identity_is_pure_diagonal(self):
        mu = measure([(0, F(1, 2)), (3, F(1, 3))])
        d = decompose_step(mu, mu)
        assert d.components == () and d.diagonal == mu

    def test_adjacent_components_split_shared_atom(self):
        mu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        nu = measure([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))])
        d = decompose_step(mu, nu)
        assert [ (c.I.lo, c.I.hi) for c in d.components ] == [(-2, 0), (0, 2)]
        assert d.components[0].nu_k == measure([(-2, F(1, 4)), (0, F(1, 4))])
        assert d.components[1].nu_k == measure([(0, F(1, 4)), (2, F(1, 4))])
        assert d.components[0].J == Interval.closed(-2, 0)
        assert d.diagonal.is_zero

    def test_diagonal_between_components(self):
        # two separated spreads with untouched mass in the middle
        mu = measure([(-3, F(1, 4)), (0, F(1, 2)), (3, F(1, 4))])
        nu = measure([(-4, F(1, 8)), (-2, F(1, 8)), (0, F(1, 2)), (2, F(1, 8)), (4, F(1, 8))])
        d = decompose_step(mu, nu)
        assert d.diagonal == DiscreteMeasure.dirac(0, F(1, 2))
        assert len(d.components) == 2
        assert d.component_of_point(F(0)) is None
        assert d.component_of_point(F(-3)) is not None

    def test_requires_convex_order(self):
        with pytest.raises(NotInConvexOrder):
            decompose_step(measure([(-1, 1)]), measure([(1, 1)]))

    def test_masses_add_up_and_parts_in_order(self):
        rng = random.Random(3)
        for _ in range(40):
            chain = random_marginal_chain(rng, 1, max_support=6)
            mu, nu = chain[0], chain[1]
            d = decompose_step(mu, nu)
            nu_total = d.diagonal
            mu_total = d.diagonal
            for comp in d.components:
                assert convex_order_leq(comp.mu_k, comp.nu_k)
                nu_total = add(nu_total, comp.nu_k)
                mu_total = add(mu_total, comp.mu_k)
            assert nu_total == nu and mu_total == mu

    def test_component_interval_recoverable_from_parts(self):
        # each component, decomposed on its own, is a single component with
        # the same open interval
        rng = random.Random(5)
        for _ in range(25):
            chain = random_marginal_chain(rng, 1, max_support=6)
            d = decompose_step(chain[0], chain[1])
            for comp in d.components:
                redone = decompose_step(comp.mu_k, comp.nu_k)
                assert redone.diagonal.is_zero
                assert len(redone.components) == 1
                assert redone.components[0].I == comp.I

    def test_components_are_disjoint(self):
        rng = random.Random(9)
        for _ in range(25):
            chain = random_marginal_chain(rng, 1, max_support=6)
            d = decompose_step(chain[0], chain[1])
            for x in range(-12, 13):
                hits = [c.index for c in d.components if c.I.contains(F(x, 2))]
                assert len(hits) <= 1

    def test_json_uses_inf_sentinels(self):
        d = decompose_step(DiscreteMeasure.dirac(0), measure([(-1, F(1, 2)), (1, F(1, 2))]))
        blob = json.dumps(d.to_json())
        parsed = json.loads(blob)
        assert parsed["diagonal_intervals"][0]["lo"] == "-inf"
        assert parsed["diagonal_intervals"][-1]["hi"] == "inf"


def many_components_pair(n):
    """n atoms at 4j, each split to 4j +- 2 unless j % 3 == 2: one component
    per split atom, neighbours meeting at a shared atom of nu or at a
    diagonal point."""
    mu = DiscreteMeasure((4 * j, F(1, n)) for j in range(n))
    nu = DiscreteMeasure(
        atom
        for j in range(n)
        for atom in ([(4 * j, F(1, n))] if j % 3 == 2 else [(4 * j - 2, F(1, 2 * n)), (4 * j + 2, F(1, 2 * n))])
    )
    return mu, nu


@st.composite
def reducible_chains(draw):
    """Chains in the pattern of the 134-component pair: up to six atoms at 4j
    with weights 1 to 3, then one to three steps.  A step keeps the atoms j
    with j % period in a drawn set of residues and moves each other atom x
    to x - a and x + b, the mean kept, the gaps (a, b) cycling through a
    drawn list and halved at each step.  Small gaps give one component per
    moved atom, some meeting at a point; wider ones overlap and merge them;
    a step that moves nothing is mu = nu."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    chain = [DiscreteMeasure((4 * j, F(w, sum(weights))) for j, w in enumerate(weights))]
    for step in range(draw(st.integers(1, 3))):
        period = draw(st.integers(1, 4))
        stays = draw(st.sets(st.integers(0, period - 1)))
        gaps = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
        atoms = []
        for j, (x, w) in enumerate(chain[-1]):
            if j % period in stays:
                atoms.append((x, w))
                continue
            a, b = (F(g, 2**step) for g in gaps[j % len(gaps)])
            atoms += [(x - a, w * b / (a + b)), (x + b, w * a / (a + b))]
        chain.append(DiscreteMeasure(atoms))
    return chain


class TestAgainstRunLoopOracle:
    """Components read between consecutive zeros of the sweep, and the
    diagonal intervals paired up from their ends, against the run loop and
    the case analysis they replaced."""

    @staticmethod
    def check(mu, nu):
        d, o = decompose_step(mu, nu), oracle_decompose_step(mu, nu)
        assert d == o
        assert d.diagonal_intervals() == oracle_diagonal_intervals(o)
        expected = {**o.to_json(), "diagonal_intervals": [iv.to_json() for iv in oracle_diagonal_intervals(o)]}
        assert json.dumps(d.to_json()) == json.dumps(expected)
        assert all(comp.J == Interval.closed(comp.I.lo, comp.I.hi) for comp in d.components)
        return d

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
    def test_random_chains(self, seed, steps, data):
        chain = random_marginal_chain(random.Random(seed), steps, max_support=7, start_atoms=4)
        s = data.draw(st.integers(0, steps))
        self.check(chain[s], chain[data.draw(st.integers(s, steps))])

    @pytest.mark.parametrize("k", [8, 40])
    def test_grid_chains(self, k):
        chain = grid_chain(random.Random(k), k)
        for s, t in itertools.combinations_with_replacement(range(3), 2):
            self.check(chain[s], chain[t])

    @settings(max_examples=100, deadline=None)
    @given(reducible_chains(), st.data())
    def test_reducible_chains(self, chain, data):
        # touching components split a shared atom of nu between them
        s = data.draw(st.integers(0, len(chain) - 1))
        self.check(chain[s], chain[data.draw(st.integers(s, len(chain) - 1))])

    def test_many_components(self):
        assert len(self.check(*many_components_pair(400)).components) == 267

    def test_zero_measure_has_no_components(self):
        d = decompose_step(DiscreteMeasure.zero(), DiscreteMeasure.zero())
        assert d.components == () and d.diagonal.is_zero
        assert d.diagonal_intervals() == (Interval.real_line(),)

    def test_a_sweep_positive_at_the_edge_is_an_error(self):
        # a forged sweep of (delta_0, the +-1 split) whose last gap is 5;
        # the run loop read it as the component (-1, 1)
        mu, nu = DiscreteMeasure.dirac(0), measure([(-1, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(AssertionError, match="potential difference positive at the support edge"):
            decomposition._decomposed(mu, nu, ([-1, 1], [0, 5], 0, 0, 1, 1))

    def test_many_components_bytes(self, tmp_path, monkeypatch, capsys):
        # 134 components, 67 of them meeting the next at a single diagonal point
        monkeypatch.chdir(tmp_path)
        mu, nu = many_components_pair(200)
        (tmp_path / "mu.json").write_text(json.dumps(mu.to_json()))
        (tmp_path / "nu.json").write_text(json.dumps(nu.to_json()))
        d = decompose_step(mu, nu)
        assert len(d.components) == 134
        assert sum(iv.lo == iv.hi for iv in d.diagonal_intervals()) == 67
        digests = []
        for extra in ([], ["--csv"]):
            assert main(["decompose", "mu.json", "nu.json", *extra]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert digests == [
            "04ec20c9d757649ed6be07d0067809188ac81ab8b8fdac011b551cdc72d39791",
            "70c82249ecf0dccbf4e4d272ec586729719c01207fd0ee23ee0fcb17a9245056",
        ]


class _Solved(Exception):
    pass


def competitor_lp(pi, reward, decomps, marginal):
    """The objective, dense rows and rhs of the LP that
    `find_improving_competitor` solves, or None when it solves none."""
    lps = []

    def record(objective, rows, rhs):
        lps.append((objective, dense(rows, len(objective)), rhs))
        raise _Solved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "solve_lp", record)  # read by `geometry` only
        try:
            find_improving_competitor(pi, reward, decomps, marginal)
        except _Solved:
            pass
    return lps[0] if lps else None


class TestAgainstComponentScan:
    """The bisection of `component_of_point` against the scan over every
    component that it replaced, on reducible chains: every reader of the
    domain gives what it gives with the scan patched in."""

    @staticmethod
    def readers(chain, paths, competitor):
        n = len(chain) - 1
        decomps, free = decompose_chain(chain), [decompose_step(chain[0], chain[-1])] * n
        reward = lambda p: p[0] * p[-1] * p[-1]
        lpsolver._constrained_program.cache_clear()
        program = build_program(chain, reward)
        pi = left_monotone_multistep(chain)
        return {
            "pairs": [
                [[d.pair_component(x, y) for y in grid] for x in grid]
                for d, grid in zip(decomps, (sorted({*mu.support, *nu.support}) for mu, nu in zip(chain, chain[1:])))
            ],
            "paths": decomposition._effective_paths([mu.support for mu in chain], decomps),
            "free paths": decomposition._effective_paths([chain[0].support, *[chain[-1].support] * n], free),
            "program": (program.paths, program.row_keys, program.rows),
            "polar": polar_test(chain, paths),
            "free polar": free_polar_test(chain[0], chain[-1], n, paths),
            "competitor": [competitor(pi, reward, ds, marginal) for ds, marginal in ((decomps, chain[-1]), (free, None))],
        }

    @settings(max_examples=100, deadline=None)
    @given(reducible_chains(), st.integers(0, 2**32 - 1))
    @example([DiscreteMeasure((4 * j, F(1, 3)) for j in range(3))] * 2, 0)
    @example([DiscreteMeasure.dirac(0), measure([(-1, F(1, 2)), (1, F(1, 2))])], 0)
    def test_reducible_chains(self, chain, seed):
        for mu, nu in zip(chain, chain[1:]):
            d = decompose_step(mu, nu)
            ends = {end for comp in d.components for end in (comp.I.lo, comp.I.hi)}
            points = sorted({*mu.support, *nu.support, *ends})
            points += [(a + b) / 2 for a, b in zip(points, points[1:])] + [points[0] - 1, points[-1] + 1]
            for x in points:
                found = d.component_of_point(x)
                assert found == oracle_component_of_point(d, x)
                spelled = [f"{x.numerator}/{x.denominator}"] + ([int(x)] if x.denominator == 1 else [])
                assert all(d.component_of_point(v) == found == oracle_component_of_point(d, v) for v in spelled)

        rng = random.Random(seed)
        grids = [[*mu.support, F(1, 3), F(99)] for mu in chain]
        paths = [tuple(rng.choice(g) for g in grids) for _ in range(30)]
        paths += decomposition._effective_paths([mu.support for mu in chain], decompose_chain(chain))[::7]
        looked_up = self.readers(chain, paths, competitor_lp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StepDecomposition, "component_of_point", oracle_component_of_point)
            scanned = self.readers(chain, paths, oracle_competitor_lp)
        for name, value in looked_up.items():
            assert value == scanned[name], name


class TestEffectiveDomain:
    def _decomps(self, rigid):
        return [decompose_step(rigid[t - 1], rigid[t]) for t in (1, 2)]

    def test_component_chains(self, rigid_marginals):
        decomps = self._decomps(rigid_marginals)
        assert effective_domain_contains(decomps, (F(0), F(-1), F(-2))) == (1, 1)
        assert effective_domain_contains(decomps, (F(0), F(-1), F(0))) == (1, 1)
        assert effective_domain_contains(decomps, (F(0), F(0), F(0))) == (1, 0)
        assert effective_domain_contains(decomps, (F(0), F(1), F(-2))) is None
        assert effective_domain_contains(decomps, (F(3), F(3), F(3))) == (0, 0)

    def test_diagonal_forces_equality(self, rigid_marginals):
        decomps = self._decomps(rigid_marginals)
        assert effective_domain_contains(decomps, (F(3), F(4), F(4))) is None

    @pytest.mark.parametrize("path", [(F(0), F(-1)), (F(0), F(-1), F(0), F(0))])
    def test_path_length_must_be_steps_plus_one(self, rigid_marginals, path):
        with pytest.raises(ValueError, match="^path length must be number of steps plus one$"):
            effective_domain_contains(self._decomps(rigid_marginals), path)


class TestPolar:
    def test_named_paths(self, rigid_marginals):
        verdicts = polar_test(
            rigid_marginals, [(0, -1, 0), (0, 1, -2), (9, 9, 9)]
        )
        assert [v.polar for v in verdicts] == [False, True, True]
        assert verdicts[0].component == (1, 1)

    def test_agrees_with_lp_mass_oracle(self, rigid_marginals):
        rng = random.Random(17)
        instances = [rigid_marginals]
        for _ in range(12):
            instances.append(random_marginal_chain(rng, 2, max_support=4))
        checked = 0
        for marginals in instances:
            grids = [list(mu.support) + [F(99)] for mu in marginals]
            paths = []
            for _ in range(8):
                paths.append(tuple(rng.choice(g) for g in grids))
            verdicts = polar_test(marginals, paths)
            for v in verdicts:
                sol = solve_primal(
                    marginals, lambda p, target=v.path: 1 if p == target else 0
                )
                assert v.polar == (sol.value == 0)
                checked += 1
        assert checked >= 100

    def test_requires_convex_order(self):
        with pytest.raises(NotInConvexOrder):
            polar_test([measure([(0, 1)]), measure([(1, 1)])], [(0, 1)])

    def test_each_pair_is_swept_once(self, monkeypatch, rigid_marginals):
        sweeps, sweep = [], measure_module._put_sweep
        monkeypatch.setattr(measure_module, "_put_sweep", lambda *args: sweeps.append(args) or sweep(*args))
        polar_test(rigid_marginals, [(0, -1, 0), (0, 1, -2), (9, 9, 9)])
        assert len(sweeps) == len(rigid_marginals) - 1

    @pytest.mark.parametrize("path", [(9, 9), (0, -1), (0, -1, 0, 0)])
    def test_rejects_wrong_path_length(self, rigid_marginals, path):
        with pytest.raises(ValueError, match="path length"):
            polar_test(rigid_marginals, [path])

    def test_step_count_is_checked_before_the_order(self):
        # a pair out of order with n = 0: the step count is named, as by
        # free_monotone_transport, not the order
        mu0 = measure([(-1, F(1, 2)), (1, F(1, 2))])
        mun = DiscreteMeasure.dirac(0)
        for run in (
            lambda: free_polar_test(mu0, mun, 0, [(0,)]),
            lambda: solve_free(mu0, mun, 0, lambda p: 0),
            lambda: free_monotone_transport(mu0, mun, 0),
        ):
            assert outcome(run) == (ValueError, "n must be at least 1")
        assert outcome(lambda: solve_free(mu0, mun, 1, lambda p: 0))[0] is NotInConvexOrder

    def test_rejects_float_coordinates(self):
        mu0 = DiscreteMeasure.dirac(1)
        mun = measure([(0, F(1, 2)), (2, F(1, 2))])
        with pytest.raises(TypeError, match="not a rational"):
            polar_test([mu0, mun], [(1, 0.1)])
        assert polar_test([mu0, mun], [(1, "2")])[0].path == (1, 2)

    def test_rejects_boolean_coordinates(self):
        mu0 = DiscreteMeasure.dirac(1)
        mun = measure([(0, F(1, 2)), (2, F(1, 2))])
        with pytest.raises(TypeError, match="not a rational"):
            polar_test([mu0, mun], [(True, 2)])


class TestNStepComponents:
    """The paper's three n-step families, read through `free_polar_test`."""

    def _chargeable(self, mu0, mun, n, paths):
        return [not v.polar for v in free_polar_test(mu0, mun, n, paths)]

    def test_single_irreducible_pair(self):
        mu = DiscreteMeasure.dirac(0)
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        # I_1^2 x J_1: the middle coordinate may sit anywhere inside I_1, but
        # a step to the endpoint 1 pins the path there
        assert self._chargeable(mu, nu, 2, [(0, F(1, 2), -1), (0, 1, -1)]) == [True, False]

    def test_equal_marginals_only_diagonal(self):
        mu = measure([(0, F(1, 2)), (1, F(1, 2))])
        paths = list(itertools.product([F(0), F(1), F(1, 2)], repeat=4))
        verdicts = free_polar_test(mu, mu, 3, paths)
        assert [p for p, v in zip(paths, verdicts) if not v.polar] == [(0, 0, 0, 0), (1, 1, 1, 1)]

    def test_endpoint_atom_pinned_for_each_date(self):
        mu = DiscreteMeasure.dirac(0)
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        for pin in (-1, 1):
            held = [(0,) * t + (pin,) * (4 - t) for t in (1, 2, 3)]
            assert self._chargeable(mu, nu, 3, held) == [True, True, True]
            left = [(0, pin, 0, pin), (0, pin, -pin, -pin)]
            assert self._chargeable(mu, nu, 3, left) == [False, False]


class TestFreePolar:
    def test_diagonal_and_escape(self):
        mu0 = measure([(0, F(1, 2)), (5, F(1, 2))])
        mun = measure([(-1, F(1, 4)), (1, F(1, 4)), (5, F(1, 2))])
        verdicts = free_polar_test(mu0, mun, 2, [(5, 5, 5), (0, 9, 1), (0, 0, 1)])
        assert [v.polar for v in verdicts] == [False, True, False]

    def test_path_length_must_be_n_plus_one(self):
        mu0, mun = DiscreteMeasure.dirac(0), measure([(-1, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(ValueError, match="^path length must be n \\+ 1$"):
            free_polar_test(mu0, mun, 2, [(0, 0, 1), (0, 1)])

    def test_pinned_tail_agrees_with_free_lp(self):
        # an endpoint atom reached early and held is chargeable
        mu0 = DiscreteMeasure.dirac(0)
        mun = measure([(-1, F(1, 2)), (1, F(1, 2))])
        path = (F(0), F(1), F(1))
        verdict = free_polar_test(mu0, mun, 2, [path])[0]
        assert not verdict.polar
        sol = solve_free(
            mu0, mun, 2, lambda p: 1 if p == path else 0, grid=[F(0), F(1), F(-1)]
        )
        assert sol.value > 0

    def test_lp_oracle_on_random_paths(self):
        rng = random.Random(23)
        count = 0
        for _ in range(10):
            mu0 = random_measure(rng, max_atoms=2, span=2)
            mun = mu0
            for _ in range(2):
                from conftest import mean_preserving_spread

                mun = mean_preserving_spread(rng, mun)
            if len(mun) > 5:
                continue
            grid = sorted(set(mu0.support) | set(mun.support))
            for _ in range(6):
                path = (
                    rng.choice(list(mu0.support)),
                    rng.choice(grid),
                    rng.choice(list(mun.support)),
                )
                verdict = free_polar_test(mu0, mun, 2, [path])[0]
                sol = solve_free(
                    mu0, mun, 2, lambda p, target=path: 1 if p == target else 0
                )
                assert verdict.polar == (sol.value == 0), (path, verdict.reason)
                count += 1
        assert count >= 30

    def test_needs_at_least_one_step(self):
        mu0 = DiscreteMeasure.dirac(0)
        mun = measure([(-1, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(ValueError, match="n must be at least 1"):
            free_polar_test(mu0, mun, 0, [(0,)])
        with pytest.raises(ValueError, match="n must be at least 1"):
            solve_free(mu0, mun, 0, lambda p: 0)

    def test_rejects_float_coordinates(self):
        mu0 = DiscreteMeasure.dirac(0)
        mun = measure([(-1, F(1, 2)), (1, F(1, 2))])
        with pytest.raises(TypeError, match="not a rational"):
            free_polar_test(mu0, mun, 1, [(0, 0.1)])
        assert free_polar_test(mu0, mun, 1, [("0", "1/1")])[0].path == (0, 1)


_halves = st.integers(-8, 8).map(lambda k: F(k, 2))
_gaps = st.sampled_from([F(1, 2), F(1), F(2)])


@st.composite
def free_problems(draw):
    """(mu0, mun, n, inner): mun is two, one or no mean-preserving spreads
    of mu0 (each atom stays or splits in two), so mu0 <=_c mun; the inner
    grid is the union of the supports plus one or two points, mostly off
    both."""
    atoms = draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(1, 3)),
            min_size=1, max_size=3, unique_by=lambda a: a[0],
        )
    )
    mu0 = DiscreteMeasure(atoms)
    mun = mu0
    for _ in range(draw(st.sampled_from([2, 1, 0]))):
        moved = []
        for x, w in mun:
            if draw(st.booleans()):
                moved.append((x, w))
                continue
            down, up = draw(_gaps), draw(_gaps)
            moved += [(x - down, w * up / (down + up)), (x + up, w * down / (down + up))]
        mun = DiscreteMeasure(moved)
    extra = draw(st.lists(_halves, min_size=1, max_size=2))
    inner = tuple(sorted(set(mu0.support) | set(mun.support) | set(extra)))
    return mu0, mun, draw(st.sampled_from([2, 3, 1])), inner


class TestFreeAgainstComponentOracle:
    """The effective domain of n steps of the (mu0, mun) decomposition against
    the paper's three n-step families, which it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(free_problems(), st.data())
    def test_verdicts(self, problem, data):
        mu0, mun, n, inner = problem
        # None repeats the previous coordinate, so held and constant paths occur
        coord = st.one_of(st.none(), st.sampled_from(inner + (F(99),)))
        paths = []
        for raw in data.draw(st.lists(st.lists(coord, min_size=n + 1, max_size=n + 1), max_size=25)):
            path = [raw[0] if raw[0] is not None else inner[0]]
            for x in raw[1:]:
                path.append(path[-1] if x is None else x)
            paths.append(tuple(path))
        paths += oracle_free_paths(mu0, mun, n, inner)[::5]
        verdicts = free_polar_test(mu0, mun, n, paths)
        assert [not v.polar for v in verdicts] == [
            oracle_free_chargeable(mu0, mun, n, p) for p in paths
        ]

    @settings(max_examples=100, deadline=None)
    @given(free_problems())
    def test_skeleton_paths_in_product_order(self, problem):
        mu0, mun, n, inner = problem
        paths = lpsolver._free_program(mu0, mun, n, inner).paths
        assert paths == tuple(oracle_free_paths(mu0, mun, n, inner))
