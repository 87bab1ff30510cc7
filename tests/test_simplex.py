import copy
import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import build_program, extract_dual, left_tail_put_reward, simplex, solve_primal
from leftcurtain.simplex import Infeasible, Unbounded, _Tableau, phase1, solve_from, solve_lp

from conftest import dense, irreducible_chain, oracle_solve_lp, sparse


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
        r = solve_lp([F(1), F(2)], sparse([[F(1), F(1)], [F(1), F(3)]]), [F(4), F(6)], ["<=", "<="])
        assert r.value == 5 and r.x == [F(3), F(1)]

    def test_equalities(self):
        r = solve_lp([F(1), F(0)], sparse([[F(1), F(1)], [F(1), F(-1)]]), [F(1), F(0)])
        assert r.value == F(1, 2)

    def test_redundant_rows(self):
        r = solve_lp([F(1), F(0)], sparse([[F(1), F(1)], [F(1), F(1)]]), [F(1), F(1)])
        assert r.value == 1
        assert sum(d * 1 for d in r.duals) == 1

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp([F(1)], sparse([[F(1)], [F(1)]]), [F(1), F(2)])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([F(1), F(0)], sparse([[F(0), F(1)]]), [F(1)])

    def test_degenerate_cycling_instance(self):
        c = [F(3, 4), F(-150), F(1, 50), F(-6)]
        rows = [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ]
        r = solve_lp(c, sparse(rows), [F(0), F(0), F(1)], ["<=", "<=", "<="])
        assert r.value == F(1, 20)

    def test_negative_rhs_normalization(self):
        # x0 - x1 = -2, x0 + x1 <= 4, max x0 -> x = (1, 3)
        rows = sparse([[F(1), F(-1)], [F(1), F(1)]])
        r = solve_lp([F(1), F(0)], rows, [F(-2), F(4)], ["=", "<="])
        assert r.value == 1 and r.x == [F(1), F(3)]

    def test_min_with_ge_rows(self):
        r = solve_lp(
            [F(1, 3), F(1, 7)],
            sparse([[F(2), F(1)], [F(1), F(3)]]),
            [F(4), F(6)],
            [">=", ">="],
            maximize=False,
        )
        assert r.value == F(4, 7)

    def test_pivot_counts_without_artificials(self):
        # Only slacks start basic, so phase 1 makes no pivot.  Bland enters x0
        # (ratios 4/1 < 6/1, delta 1), then x1 in the second row (ratios 4/1
        # and 2/2) on the pivot element 2.
        r = solve_lp([F(1), F(2)], sparse([[F(1), F(1)], [F(1), F(3)]]), [F(4), F(6)], ["<=", "<="])
        assert (r.iterations, r.phase1_iterations, r.max_delta_bits) == (2, 0, 2)

    def test_pivot_counts_with_drive_out(self):
        # Phase 1 enters x0 on the pivot element 2 and is then optimal with
        # the second row's artificial basic at level zero; driving it out
        # pivots on x2 (element -2, so every row is negated and delta stays
        # 2).  Phase 2 enters x1 on the element 1, and delta falls back to 1.
        rows = sparse([[F(2), F(1), F(1)], [F(0), F(0), F(-1)]])
        r = solve_lp([F(0), F(1), F(0)], rows, [F(4), F(0)])
        assert r.value == 4 and r.x == [F(0), F(4), F(0)]
        assert (r.iterations, r.phase1_iterations, r.max_delta_bits) == (3, 2, 2)

    @staticmethod
    def fresh_tableau():
        """Two '<=' rows whose slacks are basic, at scale 1; column 0 has an
        entry in both rows, so pivoting it in at row 0 updates row 1."""
        return _Tableau(
            [[(0, 1), (1, 1)], [(1, 1)]], [0, 0, 0], [[1, 0, 1], [0, 1, 1], [0, 0, 0]], [1, 1, 1], [2, 3]
        )

    def test_forged_pivot_row_scale_is_detected(self):
        # A forged scale 2 for the pivot row: the determinant delta * p / 2 =
        # 1 / 2 of the pivot on element 1 is not an integer.
        tab = self.fresh_tableau()
        tab.scales[0] = 2
        with pytest.raises(AssertionError, match="does not divide the determinant"):
            tab.pivot(0, 0, tab.column(0))

    def test_forged_row_scale_is_caught_by_the_identity_check(self):
        # Only slacks start basic, so phase 2 is the one run.  Forging row 1
        # to scale 2 when it starts halves that row's B^-1 row; the pivot on
        # x0 at row 0 carries the error into the updated row 1, and the
        # check of the basic columns at the end finds it.
        original = _Tableau.run

        def run(tab):
            tab.scales[1] *= 2
            original(tab)

        rows = sparse([[F(1), F(1)], [F(1), F(2)]])
        assert solve_lp([F(1), F(0)], rows, [F(4), F(6)], ["<=", "<="]).iterations == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Tableau, "run", run)
            with pytest.raises(AssertionError, match="basic column is not the scaled identity"):
                solve_lp([F(1), F(0)], rows, [F(4), F(6)], ["<=", "<="])


class TestMalformedInput:
    @pytest.mark.parametrize(
        "objective, rows, rhs, senses, message",
        [
            ([1], [[(1, 5)]], [2], None, r"row 0 has column 1, expected an int in range\(1\)"),
            ([1, 1], [[(0, 1)], [(-1, 1)]], [2, 2], None, "row 1 has column -1, expected"),
            ([1], [[(0, 1)]], [2], ["<"], "row 0 has sense '<'"),
            ([1], [[(0, 1)], [(0, 1)]], [2, -2], ["=", "<"], "row 1 has sense '<'"),
            ([1], [[(0, 1)], [(0, 1)]], [2], None, "rhs has 1 entries for 2 rows"),
            ([1], [[(0, 1)]], [2, 3], None, "rhs has 2 entries for 1 rows"),
            ([1], [[(0, 1)], [(0, 1)]], [2, 2], ["="], "senses has 1 entries for 2 rows"),
            ([1, 1], [[(0, 1)], [(True, 1)]], [2, 2], None, "row 1 has column True, expected"),
            ([1, 1], [[(0.0, 1)]], [2], None, "row 0 has column 0.0, expected"),
            ([1, 1], [[(0, 1), (1, 1), (0, 0)]], [2], None, "row 0 names a column twice"),
        ],
    )
    def test_rejected_with_value_error(self, objective, rows, rhs, senses, message):
        with pytest.raises(ValueError, match=message):
            solve_lp(objective, rows, rhs, senses)

    def test_solve_from_needs_one_coefficient_per_column(self):
        state = phase1(2, [[(0, 1), (1, 1)]], [2])
        with pytest.raises(ValueError, match="^objective has 1 coefficients, expected 2$"):
            solve_from(state, [1])


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


def solve_dense(objective, rows, *args):
    """`solve_lp` on dense rows, as the oracles take them."""
    return solve_lp(objective, sparse(rows), *args)


class TestRandomized:
    def test_against_reference_and_certificates(self):
        rng = random.Random(2024)
        solved = infeasible = unbounded = 0
        for _ in range(250):
            lp = random_lp(rng)
            c, rows, rhs, senses, maximize = lp
            try:
                result = solve_dense(c, rows, rhs, senses, maximize)
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
            assert outcome_of(solve_dense, lp) == outcome_of(oracle_solve_lp, lp)
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
                first = solve_dense(c, rows, rhs, senses, maximize)
            except (Infeasible, Unbounded):
                continue
            second = solve_dense(c, rows, rhs, senses, maximize)
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
        assert outcome_of(solve_dense, lp) == outcome_of(oracle_solve_lp, lp)

    @settings(max_examples=200, deadline=None)
    @given(lps(), st.randoms(use_true_random=False))
    def test_pair_order_and_zeros_do_not_matter(self, lp, rnd):
        """Each row's pairs in any order, zero coefficients included, give
        the phase-1 end state of the rows without zeros in column order."""
        objective, rows, rhs, senses, _ = lp
        shuffled = []
        for row in rows:
            shuffled.append(list(enumerate(row)))
            rnd.shuffle(shuffled[-1])
        n = len(objective)
        assert outcome_of(phase1, (n, sparse(rows), rhs, senses)) == outcome_of(
            phase1, (n, shuffled, rhs, senses)
        )

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
            state = phase1(n, sparse(rows), rhs, senses)
        except Infeasible:
            for c, mx in objectives:
                lp_c = (c, rows, rhs, senses, mx)
                assert outcome_of(solve_dense, lp_c) is Infeasible
                assert outcome_of(oracle_solve_lp, lp_c) is Infeasible
            return
        before = copy.deepcopy(state)
        for c, mx in objectives + objectives[:1]:
            lp_c = (c, rows, rhs, senses, mx)
            warm = outcome_of(lambda *args: solve_from(state, c, mx), lp_c)
            assert warm is not Infeasible
            assert warm == outcome_of(solve_dense, lp_c) == outcome_of(oracle_solve_lp, lp_c)
            assert state == before

    @settings(max_examples=200, deadline=None)
    @given(lps(), st.lists(st.lists(coefficients, min_size=6, max_size=6), min_size=1, max_size=3))
    def test_remembered_phase1_solves_alike(self, lp, others):
        """solve_lp on one system given as tuples, for several objectives and
        the first again, gives each time what the same lists give cold."""
        objective, rows, rhs, senses, maximize = lp
        frozen = (sparse(tuple(map(tuple, rows))), tuple(rhs), tuple(senses))
        for c in [objective] + [o[: len(objective)] for o in others] + [objective]:
            cold = outcome_of(solve_dense, (c, rows, rhs, senses, maximize))
            assert outcome_of(solve_lp, (c, *frozen, maximize)) == cold


    def test_irreducible_chain_of_120_paths(self):
        """A transport LP of 120 variables and 34 rows gives the dense
        oracle's result, with the pivot count and peak determinant bits of
        the fraction-free engine that kept every row at that determinant."""
        chain = irreducible_chain(random.Random(358), (3, 5, 8))
        program = build_program(chain, left_tail_put_reward(chain[0].support[1], 2, chain[2].support[4]))
        objective, rows, rhs = program.reward_values, list(program.rows), program.rhs
        assert (len(objective), len(rows)) == (120, 34)
        result = solve_lp(objective, rows, rhs)
        assert result == oracle_solve_lp(objective, dense(rows, len(objective)), rhs)
        assert (result.iterations, result.phase1_iterations, result.max_delta_bits) == (201, 169, 229)


class TestPinnedPivots:
    """Transport LPs at the largest size of the `lp-certify` benchmark (84
    variables, 29 rows) and at [4, 6, 10] (240 variables, 48 rows): the
    pivot counts, the peak determinant bits and the bytes of the solution
    and of the dual certificate, against their sha256."""

    @pytest.mark.parametrize(
        "seed, sizes, counts, solution_digest, certificate_digest",
        [
            (
                347, (3, 4, 7), (191, 96, 126),
                "af1787ea0f0ff67c72e1bd699a79f155ef89fd0d3296351ce38d979d5ed65054",
                "c525ab4cc07cd4a1e45df9aff6b6c6b0b895fb8cab31750400980714bcb4290d",
            ),
            (
                4610, (4, 6, 10), (583, 359, 231),
                "cb3cf5d223965e411137e783b86e0c4c4c083a6993f0c1f8f5e1c4bbafbf1867",
                "97bd55440ee520eeb65c173b18a4ad025ddd8ba71c40d57d164622eb35b5770e",
            ),
        ],
        ids=["3-4-7", "4-6-10"],
    )
    def test_counts_and_bytes(self, seed, sizes, counts, solution_digest, certificate_digest):
        chain = irreducible_chain(random.Random(seed), sizes)
        last = chain[2].support
        solution = solve_primal(chain, left_tail_put_reward(chain[0].support[1], 2, last[len(last) // 2]))
        certificate = extract_dual(solution.program, solution)
        lp = solution.lp
        assert (lp.iterations, lp.phase1_iterations, lp.max_delta_bits) == counts
        payload = {"value": str(solution.exact_value), "optimizer": solution.optimizer.to_json()}
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == solution_digest
        assert hashlib.sha256(json.dumps(certificate.to_json()).encode()).hexdigest() == certificate_digest


def forge_scales(tab):
    """Row i, the objective row included, at 2, 3 or 5 times its scale (by
    i % 3): the same state at other scales."""
    for i in range(len(tab.rows)):
        k = (2, 3, 5)[i % 3]
        tab.rows[i] = [k * v for v in tab.rows[i]]
        tab.scales[i] *= k


class TestMixedScales:
    """Rows in lowest terms, each at its own scale, give the results of the
    dense tableau with one common delta."""

    @pytest.fixture
    def pivot_log(self, monkeypatch):
        """Per pivot: (the pivot element was negative, a row it updated
        other than the pivot row was divided by a gcd g > 1)."""
        seen = []
        original = _Tableau.pivot

        def pivot(tab, r, c, column):
            # Row i goes from scale s_i to s_i * q / g, where g divides s_i
            # and shares no factor with q: a multiple of s_i only if g == 1.
            before = list(tab.scales)
            original(tab, r, c, column)
            updated = [i for i, f in enumerate(column) if f and i != r]
            seen.append((column[r] < 0, any(tab.scales[i] % before[i] for i in updated)))

        monkeypatch.setattr(_Tableau, "pivot", pivot)
        return seen

    def test_irreducible_chain(self, pivot_log):
        chain = irreducible_chain(random.Random(149), (2, 4, 6))
        program = build_program(chain, left_tail_put_reward(chain[0].support[0], 2, chain[2].support[2]))
        objective, rows, rhs = program.reward_values, list(program.rows), program.rhs
        n = len(objective)
        oracle = oracle_solve_lp(objective, dense(rows, n), rhs)
        assert solve_lp(objective, rows, rhs) == solve_from(phase1(n, rows, rhs), objective) == oracle
        assert any(reduced for _, reduced in pivot_log)

    def test_negative_drive_out_pivot(self, pivot_log):
        # Phase 1 enters x0 on the element 2 and is optimal with row 1's
        # artificial basic at level zero.  Driving it out pivots x2 in at
        # row 1 on a negative element, so that row is negated and every
        # scale stays positive.
        objective, rhs = [F(0), F(1), F(0)], [F(4), F(0)]
        rows = sparse([[F(2), F(1), F(1)], [F(0), F(0), F(-1)]])
        state = phase1(3, rows, rhs)
        assert [negative for negative, _ in pivot_log] == [False, True]
        assert all(s > 0 for s in state.scales)
        oracle = oracle_solve_lp(objective, dense(rows, 3), rhs)
        assert solve_from(state, objective) == solve_lp(objective, rows, rhs) == oracle

    @settings(max_examples=200, deadline=None)
    @given(lps())
    def test_rows_stay_in_lowest_terms(self, lp):
        """After every pivot, every row, the objective row included, is at a
        positive scale that shares no factor with all of its entries."""
        original = _Tableau.pivot
        reduced = []

        def pivot(tab, r, c, column):
            original(tab, r, c, column)
            reduced.append(all(s > 0 and math.gcd(s, *row) == 1 for row, s in zip(tab.rows, tab.scales)))

        expected = outcome_of(oracle_solve_lp, lp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Tableau, "pivot", pivot)
            assert outcome_of(solve_dense, lp) == expected
        assert all(reduced)

    @settings(max_examples=100, deadline=None)
    @given(lps())
    def test_scales_change_no_decision(self, lp):
        """Each row forged to 2, 3 or 5 times its scale when a run starts,
        the same state at other scales, gives the same result."""
        original = _Tableau.run

        def run(tab):
            forge_scales(tab)
            original(tab)

        expected = outcome_of(solve_dense, lp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Tableau, "run", run)
            assert outcome_of(solve_dense, lp) == expected


class TestBasicColumns:
    """Pricing and the drive-out search skip basic columns: a basic column
    reads s_i in its own row and 0 in every other row, the objective row
    included, at any row scales."""

    @settings(max_examples=200, deadline=None)
    @given(lps(), st.booleans())
    def test_basic_reduced_costs_are_zero(self, lp, forged):
        """At the start of every run and after every pivot, every basic
        column's reduced cost is 0 and `basic` flags the basic columns, also
        with each row forged to 2, 3 or 5 times its scale as a run starts."""
        run, pivot = _Tableau.run, _Tableau.pivot
        seen = []

        def check(tab):
            stored = range(len(tab.columns))
            u, d = tab.rows[-1], tab.scales[-1]
            seen.append(
                [j for j in stored if tab.basic[j]] == sorted(j for j in tab.basis if j in stored)
                and all(d * tab.cost[j] + sum(u[k] * a for k, a in tab.columns[j]) == 0
                        for j in tab.basis if j in stored)
            )

        def checked_run(tab):
            if forged:
                forge_scales(tab)
            check(tab)
            run(tab)

        def checked_pivot(tab, r, c, column):
            pivot(tab, r, c, column)
            check(tab)

        expected = outcome_of(solve_dense, lp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Tableau, "run", checked_run)
            mp.setattr(_Tableau, "pivot", checked_pivot)
            assert outcome_of(solve_dense, lp) == expected
        assert all(seen)

    def test_pricing_reads_no_basic_column(self, monkeypatch):
        """Every `_dot` on the objective row inside a run reads a nonbasic
        column, on a transport LP of 48 variables and 22 rows."""
        chain = irreducible_chain(random.Random(149), (2, 4, 6))
        program = build_program(chain, left_tail_put_reward(chain[0].support[0], 2, chain[2].support[2]))
        objective, rows, rhs = program.reward_values, list(program.rows), program.rhs
        running, priced = [], []
        run, dot = _Tableau.run, simplex._dot

        def spied_run(tab):
            running.append(tab)
            try:
                run(tab)
            finally:
                running.pop()

        def spied_dot(row, column):
            if running and row is running[-1].rows[-1]:
                tab = running[-1]
                priced.append(any(column is tab.columns[j] for j in tab.basis if j < len(tab.columns)))
            return dot(row, column)

        expected = solve_lp(objective, rows, rhs)
        monkeypatch.setattr(_Tableau, "run", spied_run)
        monkeypatch.setattr(simplex, "_dot", spied_dot)
        assert solve_lp(objective, rows, rhs) == expected
        assert len(priced) > expected.iterations and not any(priced)


class TestRememberedPhase1:
    rows = (((0, F(1)), (1, F(1)), (2, F(1))), ((0, F(1)), (1, F(-1))))
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
        list_pairs = tuple(tuple(list(p) for p in r) for r in self.rows)

        def set_first(rows, a):
            if type(rows[0][0]) is list:
                rows[0][0][1] = a
            else:
                rows[0][0] = (0, a)

        for rows in (lists, inner_lists, list_pairs):
            set_first(rows, F(2))
            first = solve_lp(objective, rows, self.rhs, self.senses)
            set_first(rows, F(1))
            assert solve_lp(objective, rows, self.rhs, self.senses) == solve_lp(
                objective, self.rows, self.rhs, self.senses
            ) != first
        mutable = (id(lists), id(inner_lists), id(list_pairs))
        assert all(key[1] not in mutable for key in simplex._remembered)

    def test_failures_are_not_remembered(self, phase1_runs):
        rows, rhs = (((0, F(1)), (1, F(1))),), (F(-1),)
        for _ in range(2):
            with pytest.raises(Infeasible):
                solve_lp([F(1), F(0)], rows, rhs)
        assert len(phase1_runs) == 2
        # Another objective length is the cold solve's ValueError, not a reuse.
        solve_lp([F(1)] * 3, self.rows, self.rhs, self.senses)
        with pytest.raises(ValueError, match=r"row 0 has column 2, expected an int in range\(2\)"):
            solve_lp([F(1)] * 2, self.rows, self.rhs, self.senses)

    def test_memory_is_bounded(self, phase1_runs):
        size, rhs = simplex._REMEMBERED, (F(1),)
        systems = [(((0, F(1)), (1, F(1))),) for _ in range(size + 1)]
        for rows in systems + systems[1:]:
            phase1(2, rows, rhs)
        assert len(simplex._remembered) == size
        assert len(phase1_runs) == size + 1
        phase1(2, systems[0], rhs)
        assert len(phase1_runs) == size + 2
