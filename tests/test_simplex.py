from fractions import Fraction as F

from lctk.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, feasible, solve_min


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
        rows = [
            [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
            [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ]
        rhs = [0, 0, 1]
        cost = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
        res = solve_min(rows, rhs, cost)
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


class TestFeasible:
    def test_feasible_point(self):
        assert feasible([[1, 1]], [1])

    def test_infeasible_point(self):
        assert not feasible([[1, 0], [1, 0]], [1, 2])
