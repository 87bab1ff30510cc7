import json
import random
from fractions import Fraction as F

import pytest

from leftcurtain import (
    DiscreteMeasure,
    Interval,
    NotInConvexOrder,
    add,
    convex_order_leq,
    decompose_step,
    effective_domain_contains,
    free_polar_test,
    n_step_components,
    polar_test,
    solve_free,
    solve_primal,
)

from conftest import measure, random_marginal_chain, random_measure


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
        assert d.in_diagonal_domain(F(0))
        assert not d.in_diagonal_domain(F(-3))

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

    @pytest.mark.parametrize("path", [(9, 9), (0, -1), (0, -1, 0, 0)])
    def test_rejects_wrong_path_length(self, rigid_marginals, path):
        with pytest.raises(ValueError, match="path length"):
            polar_test(rigid_marginals, [path])


class TestNStepComponents:
    def test_single_irreducible_pair(self):
        mu = DiscreteMeasure.dirac(0)
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        comps = n_step_components(mu, nu, 2)
        interiors = [c for c in comps if c.kind == "interior"]
        pinned = [c for c in comps if c.kind == "pinned"]
        assert len(interiors) == 1
        # both endpoints of J carry atoms: one pinned family per endpoint and date
        assert len(pinned) == 4
        assert interiors[0].contains((F(0), F(1, 2), F(-1)))
        assert not interiors[0].contains((F(0), F(1), F(-1)))

    def test_equal_marginals_only_diagonal(self):
        mu = measure([(0, F(1, 2)), (1, F(1, 2))])
        comps = n_step_components(mu, mu, 3)
        kinds = {c.kind for c in comps}
        assert kinds == {"diagonal"}
        assert comps[0].contains((F(0), F(0), F(0), F(0)))
        assert not comps[0].contains((F(0), F(0), F(0), F(1)))

    def test_endpoint_atom_pinned_for_each_date(self):
        mu = DiscreteMeasure.dirac(0)
        nu = measure([(-1, F(1, 2)), (1, F(1, 2))])
        comps = n_step_components(mu, nu, 3)
        pinned_right = [c for c in comps if c.kind == "pinned" and c.pin == 1]
        assert sorted(c.pin_from for c in pinned_right) == [1, 2, 3]
        assert pinned_right[0].contains((F(0), F(1), F(1), F(1)))


class TestFreePolar:
    def test_diagonal_and_escape(self):
        mu0 = measure([(0, F(1, 2)), (5, F(1, 2))])
        mun = measure([(-1, F(1, 4)), (1, F(1, 4)), (5, F(1, 2))])
        verdicts = free_polar_test(mu0, mun, 2, [(5, 5, 5), (0, 9, 1), (0, 0, 1)])
        assert [v.polar for v in verdicts] == [False, True, False]

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
