import copy
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import simplex
from leftcurtain.simplex import Infeasible, Unbounded, _Tableau, phase1, solve_from, solve_lp

from conftest import oracle_solve_lp


def reference_solve(c, rows, rhs, senses=None, maximize=True):
    """Plain-Fraction two-phase tableau simplex, for cross-checking arithmetic.

    Independent of the production engine: ordinary rational pivoting on an
    explicit tableau, with Bland tie-breaking.
    """
    m, n = len(rows), len(c)
    senses = senses or ["="] * m
    c = [F(v) if maximize else -F(v) for v in c]
    table = []
    aux = []
    for i in range(m):
        row = [F(v) for v in rows[i]] + [F(rhs[i])]
        sense = senses[i]
        if row[-1] < 0:
            row = [-v for v in row]
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        table.append(row)
        aux.append(sense)
    cols = n
    slack_cols = {}
    art_cols = {}
    for i, sense in enumerate(aux):
        if sense in ("<=", ">="):
            slack_cols[i] = cols
            cols += 1
        if sense in ("=", ">="):
            art_cols[i] = cols
            cols += 1
    full = []
    basis = []
    for i, row in enumerate(table):
        r = row[:-1] + [F(0)] * (cols - n) + [row[-1]]
        if i in slack_cols:
            r[slack_cols[i]] = F(1) if aux[i] == "<=" else F(-1)
        if i in art_cols:
            r[art_cols[i]] = F(1)
            basis.append(art_cols[i])
        else:
            basis.append(slack_cols[i])
        full.append(r)

    def run(cost, forbid_artificials):
        for _ in range(100000):
            entering = None
            for j in range(cols):
                if cost[j] < 0 and not (forbid_artificials and j in art_cols.values()):
                    entering = j
                    break
            if entering is None:
                return cost
            pivot_row, best = None, None
            for i in range(m):
                if full[i][entering] > 0:
                    ratio = full[i][cols] / full[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[pivot_row]
                    ):
                        pivot_row, best = i, ratio
            if pivot_row is None:
                raise Unbounded("reference: unbounded")
            piv = full[pivot_row][entering]
            full[pivot_row] = [v / piv for v in full[pivot_row]]
            for i in range(m):
                if i != pivot_row and full[i][entering] != 0:
                    f = full[i][entering]
                    full[i] = [a - f * b for a, b in zip(full[i], full[pivot_row])]
            f = cost[entering]
            cost = [a - f * b for a, b in zip(cost, full[pivot_row])]
            basis[pivot_row] = entering
        raise AssertionError("reference: pivot limit")

    if art_cols:
        cost1 = [F(0)] * (cols + 1)
        for col in art_cols.values():
            cost1[col] = F(1)
        for i in art_cols:
            if basis[i] == art_cols[i]:
                cost1 = [a - b for a, b in zip(cost1, full[i])]
        cost1 = run(cost1, forbid_artificials=False)
        if -cost1[cols] != 0:
            raise Infeasible("reference: infeasible")
        # degenerate pivots move zero-level artificials out of the basis
        for i in art_cols:
            if basis[i] == art_cols[i]:
                entering = next(
                    (
                        j
                        for j in range(cols)
                        if j not in art_cols.values() and full[i][j] != 0
                    ),
                    None,
                )
                if entering is not None:
                    piv = full[i][entering]
                    full[i] = [v / piv for v in full[i]]
                    for k in range(m):
                        if k != i and full[k][entering] != 0:
                            f = full[k][entering]
                            full[k] = [a - f * b for a, b in zip(full[k], full[i])]
                    basis[i] = entering
    cost2 = [F(0)] * (cols + 1)
    for j in range(n):
        cost2[j] = -c[j]
    for i, b in enumerate(basis):
        if b < n and cost2[b] != 0:
            f = cost2[b]
            cost2 = [a - f * r for a, r in zip(cost2, full[i])]
    run(cost2, forbid_artificials=True)
    x = [F(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = full[i][cols]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return (value if maximize else -value), x


def check_certificates(c, rows, rhs, senses, maximize, result):
    """Exact optimality proof: primal feasible, dual feasible, equal values."""
    m, n = len(rows), len(c)
    senses = senses or ["="] * m
    assert all(v >= 0 for v in result.x)
    for i in range(m):
        lhs = sum(F(rows[i][j]) * result.x[j] for j in range(n))
        if senses[i] == "=":
            assert lhs == rhs[i]
        elif senses[i] == "<=":
            assert lhs <= rhs[i]
        else:
            assert lhs >= rhs[i]
    assert sum(F(c[j]) * result.x[j] for j in range(n)) == result.value
    assert sum(result.duals[i] * F(rhs[i]) for i in range(m)) == result.value
    for j in range(n):
        reduced = sum(result.duals[i] * F(rows[i][j]) for i in range(m))
        if maximize:
            assert reduced >= F(c[j])
        else:
            assert reduced <= F(c[j])
    # dual sign conditions on inequality rows
    for i in range(m):
        if senses[i] == "<=":
            assert (result.duals[i] >= 0) if maximize else (result.duals[i] <= 0)
        elif senses[i] == ">=":
            assert (result.duals[i] <= 0) if maximize else (result.duals[i] >= 0)


class TestHandPicked:
    def test_basic_max(self):
        r = solve_lp([F(1), F(2)], [[F(1), F(1)], [F(1), F(3)]], [F(4), F(6)], ["<=", "<="])
        assert r.value == 5 and r.x == [F(3), F(1)]

    def test_equalities(self):
        r = solve_lp([F(1), F(0)], [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
        assert r.value == F(1, 2)

    def test_redundant_rows(self):
        r = solve_lp([F(1), F(0)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)])
        assert r.value == 1
        assert sum(d * 1 for d in r.duals) == 1

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([F(1), F(0)], [[F(0), F(1)]], [F(1)])

    def test_degenerate_cycling_instance(self):
        c = [F(3, 4), F(-150), F(1, 50), F(-6)]
        rows = [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ]
        r = solve_lp(c, rows, [F(0), F(0), F(1)], ["<=", "<=", "<="])
        assert r.value == F(1, 20)

    def test_negative_rhs_normalization(self):
        # x0 - x1 = -2, x0 + x1 <= 4, max x0 -> x = (1, 3)
        r = solve_lp([F(1), F(0)], [[F(1), F(-1)], [F(1), F(1)]], [F(-2), F(4)], ["=", "<="])
        assert r.value == 1 and r.x == [F(1), F(3)]

    def test_min_with_ge_rows(self):
        r = solve_lp(
            [F(1, 3), F(1, 7)],
            [[F(2), F(1)], [F(1), F(3)]],
            [F(4), F(6)],
            [">=", ">="],
            maximize=False,
        )
        assert r.value == F(4, 7)

    def test_pivot_counts_without_artificials(self):
        # Only slacks start basic, so phase 1 makes no pivot.  Bland enters x0
        # (ratios 4/1 < 6/1, delta 1), then x1 in the second row (ratios 4/1
        # and 2/2) on the pivot element 2.
        r = solve_lp([F(1), F(2)], [[F(1), F(1)], [F(1), F(3)]], [F(4), F(6)], ["<=", "<="])
        assert (r.iterations, r.phase1_iterations, r.max_delta_bits) == (2, 0, 2)

    def test_pivot_counts_with_drive_out(self):
        # Phase 1 enters x0 on the pivot element 2 and is then optimal with
        # the second row's artificial basic at level zero; driving it out
        # pivots on x2 (element -2, so every row is negated and delta stays
        # 2).  Phase 2 enters x1 on the element 1, and delta falls back to 1.
        r = solve_lp([F(0), F(1), F(0)], [[F(2), F(1), F(1)], [F(0), F(0), F(-1)]], [F(4), F(0)])
        assert r.value == 4 and r.x == [F(0), F(4), F(0)]
        assert (r.iterations, r.phase1_iterations, r.max_delta_bits) == (3, 2, 2)

    def test_inexact_division_is_detected(self):
        # A forged denominator 2 that the next pivot's row entries do not divide.
        tab = _Tableau([[(0, 1)], [(1, 1)]], [0, 0, 0], [[1, 0, 1], [0, 1, 1], [0, 0, 0]], [2, 3])
        tab.delta = 2
        with pytest.raises(AssertionError, match="non-integer"):
            tab.pivot(0, 0, tab.column(0))


class TestMalformedInput:
    @pytest.mark.parametrize(
        "objective, rows, rhs, senses, message",
        [
            ([1], [[1, 5]], [2], None, "row 0 has 2 coefficients, expected 1"),
            ([1, 1], [[1, 1], [1]], [2, 2], None, "row 1 has 1 coefficients, expected 2"),
            ([1], [[1]], [2], ["<"], "row 0 has sense '<'"),
            ([1], [[1], [1]], [2, -2], ["=", "<"], "row 1 has sense '<'"),
            ([1], [[1], [1]], [2], None, "rhs has 1 entries for 2 rows"),
            ([1], [[1]], [2, 3], None, "rhs has 2 entries for 1 rows"),
            ([1], [[1], [1]], [2, 2], ["="], "senses has 1 entries for 2 rows"),
        ],
    )
    def test_rejected_with_value_error(self, objective, rows, rhs, senses, message):
        with pytest.raises(ValueError, match=message):
            solve_lp(objective, rows, rhs, senses)


def random_lp(rng):
    m = rng.randint(1, 5)
    n = rng.randint(1, 8)
    rows = [
        [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)
    ]
    if rng.random() < 0.5:
        # feasible at the origin and bounded: box rows plus arbitrary <= rows
        senses = ["<="] * m
        rhs = [F(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m)]
        rows.append([F(1)] * n)
        senses.append("<=")
        rhs.append(F(rng.randint(1, 9)))
    else:
        rhs = [F(rng.randint(-3, 6), rng.randint(1, 2)) for _ in range(m)]
        senses = [rng.choice(["=", "<=", ">="]) for _ in range(m)]
    c = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    maximize = rng.random() < 0.5
    return c, rows, rhs, senses, maximize


def outcome_of(solver, lp):
    """The solver's LpResult, or the type of the exception it raised."""
    try:
        return solver(*lp)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


class TestRandomized:
    def test_against_reference_and_certificates(self):
        rng = random.Random(2024)
        solved = infeasible = unbounded = 0
        for _ in range(250):
            lp = random_lp(rng)
            c, rows, rhs, senses, maximize = lp
            try:
                result = solve_lp(c, rows, rhs, senses, maximize)
                outcome = ("optimal", result.value)
            except Infeasible:
                outcome = ("infeasible", None)
            except Unbounded:
                outcome = ("unbounded", None)
            try:
                ref_value, _ = reference_solve(c, rows, rhs, senses, maximize)
                ref = ("optimal", ref_value)
            except Infeasible:
                ref = ("infeasible", None)
            except Unbounded:
                ref = ("unbounded", None)
            assert outcome == ref
            assert outcome_of(solve_lp, lp) == outcome_of(oracle_solve_lp, lp)
            if outcome[0] == "optimal":
                check_certificates(c, rows, rhs, senses, maximize, result)
                solved += 1
            elif outcome[0] == "infeasible":
                infeasible += 1
            else:
                unbounded += 1
        assert solved >= 80 and infeasible >= 15 and unbounded >= 15

    def test_determinism(self):
        rng = random.Random(5)
        checked = 0
        while checked < 5:
            c, rows, rhs, senses, maximize = random_lp(rng)
            try:
                first = solve_lp(c, rows, rhs, senses, maximize)
            except (Infeasible, Unbounded):
                continue
            second = solve_lp(c, rows, rhs, senses, maximize)
            assert first == second
            checked += 1


coefficients = st.one_of(st.just(F(0)), st.fractions(-4, 4, max_denominator=3))


@st.composite
def lps(draw):
    """Small LPs of every sense, with zero, negative and all-zero right sides,
    duplicated (redundant) rows, and infeasible and unbounded cases."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    rows = [draw(st.lists(coefficients, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        rhs = [F(0)] * m
    else:
        rhs = draw(st.lists(coefficients, min_size=m, max_size=m))
    senses = draw(st.lists(st.sampled_from(["=", "<=", ">="]), min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else []:
        rows.append(list(rows[i]))
        rhs.append(rhs[i])
        senses.append(senses[i])
    objective = draw(st.lists(coefficients, min_size=n, max_size=n))
    return objective, rows, rhs, senses, draw(st.booleans())


class TestAgainstDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(lps())
    def test_same_pivots_vertex_and_exception(self, lp):
        assert outcome_of(solve_lp, lp) == outcome_of(oracle_solve_lp, lp)

    @settings(max_examples=200, deadline=None)
    @given(lps(), st.data())
    def test_one_phase1_serves_every_objective(self, lp, data):
        """phase1 once, then solve_from for several objectives in a drawn
        order and the first one again: each result is that of a cold
        solve_lp and of the dense oracle, and the state is never changed."""
        objective, rows, rhs, senses, maximize = lp
        n = len(objective)
        others = data.draw(
            st.lists(
                st.tuples(st.lists(coefficients, min_size=n, max_size=n), st.booleans()),
                min_size=1,
                max_size=3,
            )
        )
        objectives = [(objective, maximize)] + others
        try:
            state = phase1(n, rows, rhs, senses)
        except Infeasible:
            for c, mx in objectives:
                lp_c = (c, rows, rhs, senses, mx)
                assert outcome_of(solve_lp, lp_c) is Infeasible
                assert outcome_of(oracle_solve_lp, lp_c) is Infeasible
            return
        before = copy.deepcopy(state)
        for c, mx in objectives + objectives[:1]:
            lp_c = (c, rows, rhs, senses, mx)
            warm = outcome_of(lambda *args: solve_from(state, c, mx), lp_c)
            assert warm is not Infeasible
            assert warm == outcome_of(solve_lp, lp_c) == outcome_of(oracle_solve_lp, lp_c)
            assert state == before

    @settings(max_examples=200, deadline=None)
    @given(lps(), st.lists(st.lists(coefficients, min_size=6, max_size=6), min_size=1, max_size=3))
    def test_remembered_phase1_solves_alike(self, lp, others):
        """solve_lp on one system given as tuples, for several objectives and
        the first again, gives each time what the same lists give cold."""
        objective, rows, rhs, senses, maximize = lp
        frozen = (tuple(map(tuple, rows)), tuple(rhs), tuple(senses))
        for c in [objective] + [o[: len(objective)] for o in others] + [objective]:
            cold = outcome_of(solve_lp, (c, rows, rhs, senses, maximize))
            assert outcome_of(solve_lp, (c, *frozen, maximize)) == cold


class TestRememberedPhase1:
    rows = ((F(1), F(1), F(1)), (F(1), F(-1), F(0)))
    rhs = (F(2), F(0))
    senses = ("<=", "=")

    def test_tuples_run_phase1_once(self, phase1_runs):
        state = phase1(3, self.rows, self.rhs, self.senses)
        for objective in ([F(1), F(0), F(0)], [F(0), F(0), F(1)], [F(1), F(0), F(0)]):
            assert solve_lp(objective, self.rows, self.rhs, self.senses) == solve_lp(
                objective, [list(r) for r in self.rows], list(self.rhs), list(self.senses)
            )
        assert phase1(3, self.rows, self.rhs, self.senses) is state
        # The three cold solves above ran phase 1 each; the tuples once.
        assert len(phase1_runs) == 4

    def test_other_tuples_run_phase1_again(self, phase1_runs):
        phase1(3, self.rows, self.rhs, self.senses)
        phase1(3, tuple(tuple(r) for r in self.rows), self.rhs, self.senses)
        assert len(phase1_runs) == 2
        objective = [F(0), F(0), F(1)]
        for senses in (None, ("=", "=")):
            assert solve_lp(objective, self.rows, self.rhs, senses) == solve_lp(
                objective, list(self.rows), self.rhs, senses
            ) != solve_lp(objective, self.rows, self.rhs, self.senses)

    def test_mutable_input_is_never_remembered(self, phase1_runs):
        objective = [F(1), F(1), F(0)]
        lists = [list(r) for r in self.rows]
        inner_lists = tuple(lists)
        for rows in (lists, inner_lists):
            rows[0][0] = F(2)
            first = solve_lp(objective, rows, self.rhs, self.senses)
            rows[0][0] = F(1)
            assert solve_lp(objective, rows, self.rhs, self.senses) == solve_lp(
                objective, self.rows, self.rhs, self.senses
            ) != first
        assert all(key[1] not in (id(lists), id(inner_lists)) for key in simplex._remembered)

    def test_failures_are_not_remembered(self, phase1_runs):
        rows, rhs = ((F(1), F(1)),), (F(-1),)
        for _ in range(2):
            with pytest.raises(Infeasible):
                solve_lp([F(1), F(0)], rows, rhs)
        assert len(phase1_runs) == 2
        # Another objective length is the cold solve's ValueError, not a reuse.
        solve_lp([F(1)] * 3, self.rows, self.rhs, self.senses)
        with pytest.raises(ValueError, match="row 0 has 3 coefficients, expected 2"):
            solve_lp([F(1)] * 2, self.rows, self.rhs, self.senses)

    def test_memory_is_bounded(self, phase1_runs):
        size, rhs = simplex._REMEMBERED, (F(1),)
        systems = [((F(1), F(1)),) for _ in range(size + 1)]
        for rows in systems + systems[1:]:
            phase1(2, rows, rhs)
        assert len(simplex._remembered) == size
        assert len(phase1_runs) == size + 1
        phase1(2, systems[0], rhs)
        assert len(phase1_runs) == size + 2
