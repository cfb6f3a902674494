import random
from fractions import Fraction as F
from unittest import mock

import pytest

import conftest
from conftest import ref_solve_min
from lctk import (
    DimensionMismatchError,
    howald_lct,
    kiselman_lct,
    newton_membership,
    simplex,
    thresholds,
)
from lctk.report import random_isolated_ideal
from lctk.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_min

BEALE = (
    [[F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
     [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
     [0, 0, 1, 0, 0, 0, 1]],
    [0, 0, 1],
    [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0],
)


class TestSolveMin:
    def test_simple_bounded(self):
        # min -x - y st x + y + s = 1 -> value -1
        res = solve_min([[1, 1, 1]], [1], [-1, -1, 0])
        assert res.status == OPTIMAL
        assert res.objective == -1

    def test_equality_system(self):
        # min x1 st x1 - x2 = 2, x2 = 3 -> x1 = 5
        res = solve_min([[1, -1], [0, 1]], [2, 3], [1, 0])
        assert res.status == OPTIMAL
        assert res.x == [F(5), F(3)]

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0 (rhs negated internally, still infeasible)
        res = solve_min([[1, 1], [1, 1]], [1, 2], [0, 0])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        # min -x1 st x1 - x2 = 0: x1 can grow without bound
        res = solve_min([[1, -1]], [0], [-1, 0])
        assert res.status == UNBOUNDED

    def test_negative_rhs_normalized(self):
        # -x1 = -4  <=>  x1 = 4
        res = solve_min([[-1]], [-4], [1])
        assert res.status == OPTIMAL
        assert res.x == [F(4)]

    def test_degenerate_redundant_row(self):
        # duplicated constraint leaves a redundant artificial row
        res = solve_min([[1, 1], [2, 2]], [1, 2], [1, 0])
        assert res.status == OPTIMAL
        assert res.objective == 0

    def test_beale_cycling_example_terminates(self):
        # classic degenerate LP that cycles under naive pivoting; Bland's
        # rule must terminate at value -1/20
        res = solve_min(*BEALE)
        assert res.status == OPTIMAL
        assert res.objective == F(-1, 20)

    def test_exactness_no_floats(self):
        res = solve_min([[F(1, 3), 1]], [F(7, 9)], [-1, 0])
        assert res.status == OPTIMAL
        assert res.objective == F(-7, 3)
        assert isinstance(res.objective, F)


class TestTiebreaks:
    # min -(x + y) st x + y + s = 1: the optimal face is the edge between
    # (1, 0, 0), where Bland's rule stops, and (0, 1, 0)
    EDGE = ([[1, 1, 1]], [1], [-1, -1, 0])

    def test_edge_gives_lex_min_vertex(self):
        rows, rhs, cost = self.EDGE
        assert solve_min(rows, rhs, cost).x == [F(1), F(0), F(0)]
        res = solve_min(rows, rhs, cost, [1, 0, 0], [0, 1, 0])
        assert res.status == OPTIMAL
        assert res.x == [F(0), F(1), F(0)]

    def test_objective_is_first_cost(self):
        rows, rhs, cost = self.EDGE
        plain = solve_min(rows, rhs, cost)
        res = solve_min(rows, rhs, cost, [1, 0, 0])
        assert res.objective == plain.objective == -1

    def test_tiebreak_never_leaves_the_face(self):
        # the tiebreak would prefer s = 1, which is not optimal
        rows, rhs, cost = self.EDGE
        res = solve_min(rows, rhs, cost, [0, 0, -1], [1, 0, 0])
        assert res.x == [F(0), F(1), F(0)]

    def test_tiebreak_unbounded_on_face(self):
        # min x st x + y - z = 1: the face x = 0, y = 1 + z is a ray
        res = solve_min([[1, 1, -1]], [1], [1, 0, 0], [0, -1, 0])
        assert res.status == UNBOUNDED

    def test_unbounded_first_cost_stays_unbounded(self):
        res = solve_min([[1, -1]], [0], [-1, 0], [1, 0])
        assert res.status == UNBOUNDED

    def test_infeasible_with_tiebreaks(self):
        res = solve_min([[1, 1], [1, 1]], [1, 2], [0, 0], [1, 0])
        assert res.status == INFEASIBLE


class TestShape:
    @pytest.mark.parametrize("rows, rhs, cost, tiebreaks", [
        ([[1, 1, 1], [1, 1]], [1, 1], [0, 0, 0], []),   # ragged rows
        ([[1, 1, 1]], [1, 2], [0, 0, 0], []),           # extra rhs entry
        ([[1, 1, 1], [1, 0, 1]], [1], [0, 0, 0], []),   # missing rhs entry
        ([[1, 1]], [1], [-1, -1, 0], []),               # row shorter
        ([[1, 1, 1, 1]], [1], [-1, -1, 0], []),         # row longer
        ([[1, 1, 1]], [1], [-1, -1, 0], [[1, 0]]),      # short tiebreak
        ([[1, 1, 1]], [1], [-1, -1, 0], [[1, 0, 0], [0, 1, 0, 0]]),
    ])
    def test_mismatch_raises(self, rows, rhs, cost, tiebreaks):
        with pytest.raises(DimensionMismatchError):
            solve_min(rows, rhs, cost, *tiebreaks)

    def test_no_rows(self):
        assert solve_min([], [], [1, 0]).x == [0, 0]
        assert solve_min([], [], [1, -1]).status == UNBOUNDED


def pivots_and_result(solve, owner, name, args):
    """solve(*args) with every pivot's (row, col) recorded."""
    seen = []
    real = getattr(owner, name)

    def record(*pivot_args):
        seen.append(pivot_args[-2:])
        return real(*pivot_args)

    with mock.patch.object(owner, name, record):
        result = solve(*args)
    return seen, result


def assert_matches_reference(*args):
    """solve_min agrees with the Fraction reference in status, x and
    objective, pivot by pivot; returns the status."""
    want_pivots, want = pivots_and_result(
        ref_solve_min, conftest, "ref_pivot", args)
    got_pivots, res = pivots_and_result(solve_min, simplex, "_pivot", args)
    assert (res.status, res.x, res.objective) == want
    assert got_pivots == want_pivots
    if res.status == OPTIMAL:
        assert all(type(v) is F for v in res.x)
        assert type(res.objective) is F
    return res.status


def library_lps(seed, count):
    """The LPs the Kiselman, Howald and Newton-membership routes pose for
    seeded random ideals, n = 1..4."""
    rng = random.Random(seed)
    lps = []
    real = simplex.solve_min

    def capture(*args):
        lps.append(args)
        return real(*args)

    with mock.patch.object(thresholds, "solve_min", capture), \
            mock.patch.object(simplex, "solve_min", capture):
        for _ in range(count):
            n = rng.randint(1, 4)
            ideal = random_isolated_ideal(rng, n, [12, 6, 4, 3][n - 1])
            if ideal.is_unit:
                continue
            kiselman_lct(ideal)
            howald_lct(ideal)
            point = [F(rng.randint(0, 12), rng.randint(1, 4))
                     for _ in range(n)]
            newton_membership(ideal, point)
    return lps


def random_rational_lp(rng):
    """A small LP with rational entries; some rows are combinations of
    others, so phase 1 leaves redundant rows."""
    m, n = rng.randint(1, 4), rng.randint(2, 6)

    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    if rng.random() < 0.3:
        i, j, k = rng.randrange(m), rng.randrange(m), entry()
        rows.append([a + k * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + k * rhs[j])
    cost = [entry() for _ in range(n)]
    tiebreaks = [[entry() for _ in range(n)]
                 for _ in range(rng.randint(0, 3))]
    return (rows, rhs, cost, *tiebreaks)


class TestAgainstFractionReference:
    """Same pivots, hence the same answers, as a Fraction tableau."""

    def test_library_lps(self):
        lps = library_lps(seed=5, count=150)
        assert len(lps) > 400
        # every library LP is feasible and, for a proper ideal, bounded;
        # test_rational_lps covers the other two outcomes
        statuses = {assert_matches_reference(*lp) for lp in lps}
        assert statuses == {OPTIMAL}

    def test_rational_lps(self):
        rng = random.Random(11)
        statuses = [assert_matches_reference(*random_rational_lp(rng))
                    for _ in range(400)]
        assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(statuses)

    @pytest.mark.parametrize("lp", [
        BEALE,
        BEALE + ([0, 0, 0, 0, 1, 1, 0], [0, -1, 0, 0, 0, 0, 0]),
        ([[1, 1], [2, 2], [3, 3]], [1, 2, 3], [1, 0]),
        ([[1, 1, 1], [1, 1, 1]], [1, 1], [-1, -1, 0], [1, 0, 0], [0, 1, 0]),
        ([[-1, 0], [0, -1]], [-3, -2], [1, 1]),
        ([[1, 1], [1, 1]], [1, 2], [0, 0], [1, 0]),
        ([[1, 1, -1]], [1], [1, 0, 0], [0, -1, 0]),
        ([[1, -1]], [0], [-1, 0], [1, 0]),
        ([[F(1, 3), F(2, 7), 1]], [F(5, 11)], [F(-1, 2), F(-1, 3), 0],
         [F(1, 5), 0, 0]),
    ])
    def test_named_lps(self, lp):
        assert_matches_reference(*lp)
