import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import lctk
from lctk import (
    DegenerateMinorantError,
    NonIsolatedError,
    UnitIdealError,
    diagonal_ideal,
    diagonal_lct,
    howald_lct,
    kiselman_lct,
    maximal_ideal,
    newton_membership,
    normalize_generators,
    numeric_integrability_probe,
    refined_lelong,
    unit_ideal,
    worst_diagonal_minorant,
)
from lctk import report, simplex, thresholds
from lctk.report import build_ideal_report, random_isolated_ideal
from lctk.thresholds import (
    PROBE_MAX_POINTS,
    PROBE_SCHEDULE,
    ProbeConfig,
    UnitIdealWarning,
    minorant_from_certificate,
)

CUSP = normalize_generators([(2, 0), (0, 3)], 2)


class TestRefinedLelong:
    def test_cusp_midpoint(self):
        assert refined_lelong(CUSP, (F(1, 2), F(1, 2))) == 1

    def test_maximal_is_min_coordinate(self):
        m = maximal_ideal(3)
        x = (F(1, 6), F(2, 6), F(3, 6))
        assert refined_lelong(m, x) == F(1, 6)

    def test_zero_point(self):
        assert refined_lelong(CUSP, (0, 0)) == 0

    def test_unit_warns(self):
        with pytest.warns(UnitIdealWarning):
            assert refined_lelong(unit_ideal(2), (F(1, 2), F(1, 2))) == 0


class TestKiselman:
    def test_cusp_certificate(self):
        cert = kiselman_lct(CUSP)
        assert cert.c == F(5, 6)
        assert cert.x0 == (F(3, 5), F(2, 5))
        assert cert.nu == F(6, 5)
        assert cert.isolated

    def test_maximal_n3(self):
        cert = kiselman_lct(maximal_ideal(3))
        assert cert.c == 3
        assert cert.x0 == (F(1, 3), F(1, 3), F(1, 3))

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_principal_univariate(self, a):
        cert = kiselman_lct(normalize_generators([(a,)], 1))
        assert cert.c == F(1, a)

    def test_certificate_identities(self):
        rng = random.Random(8)
        for _ in range(25):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 5)
            cert = kiselman_lct(J)
            assert sum(cert.x0) == 1
            assert cert.c * cert.nu == 1
            assert refined_lelong(J, cert.x0) == cert.nu

    def test_lex_smallest_tiebreak(self):
        # every simplex point is optimal for (z1 z2); lex-min is (0, 1)
        cert = kiselman_lct(normalize_generators([(1, 1)], 2))
        assert cert.c == 1
        assert cert.x0 == (F(0), F(1))
        assert not cert.isolated

    def test_non_isolated_flagged_but_valid(self):
        cert = kiselman_lct(normalize_generators([(2, 0)], 2))
        assert cert.c == F(1, 2)
        assert cert.x0 == (F(1), F(0))
        assert not cert.isolated

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            kiselman_lct(unit_ideal(2))

    def test_scaling_generators(self):
        rng = random.Random(9)
        for _ in range(10):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 4)
            k = rng.randint(2, 4)
            Jk = normalize_generators(
                [tuple(k * e for e in g) for g in J.generators], J.n)
            a, b = kiselman_lct(J), kiselman_lct(Jk)
            assert b.c == a.c / k
            assert b.nu == a.nu * k
            assert b.x0 == a.x0


def _kiselman_lp(J):
    """max s st <alpha, x> - s - u_alpha = 0, sum(x) = 1 as a min LP."""
    n, k = J.n, len(J.generators)
    rows, rhs = [], []
    for idx, g in enumerate(J.generators):
        slack = [0] * k
        slack[idx] = -1
        rows.append(list(g) + [-1] + slack)
        rhs.append(0)
    rows.append([1] * n + [0] * (k + 1))
    rhs.append(1)
    return rows, rhs, [0] * n + [-1] + [0] * k


def _lex_min_by_pinning(J, s_star):
    """Reference: minimize x_1, ..., x_n one LP each, pinning the earlier
    coordinates and the optimal slope s* with extra rows."""
    n, k = J.n, len(J.generators)
    fixed = []
    for axis in range(n):
        rows, rhs = [], []
        for idx, g in enumerate(J.generators):
            slack = [0] * k
            slack[idx] = -1
            rows.append(list(g) + slack)
            rhs.append(s_star)
        rows.append([1] * n + [0] * k)
        rhs.append(1)
        for j, v in enumerate(fixed):
            row = [0] * (n + k)
            row[j] = 1
            rows.append(row)
            rhs.append(v)
        cost = [0] * (n + k)
        cost[axis] = 1
        res = simplex.solve_min(rows, rhs, cost)
        assert res.status == simplex.OPTIMAL
        fixed.append(res.x[axis])
    return tuple(fixed)


class TestLexMinTiebreak:
    def test_matches_pinned_reference(self):
        rng = random.Random(15)
        decided_by_tiebreak = 0
        for _ in range(150):
            n = rng.randint(1, 5)
            gens = [tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            J = normalize_generators(gens, n)
            if J.is_unit:
                continue
            first = simplex.solve_min(*_kiselman_lp(J))
            s_star = first.x[n]
            expected = _lex_min_by_pinning(J, s_star)
            cert = kiselman_lct(J)
            assert (cert.c, cert.x0, cert.nu) == (1 / s_star, expected,
                                                  s_star)
            decided_by_tiebreak += tuple(first.x[:n]) != expected
        # the optimal face is often not one vertex, and Bland's rule alone
        # would stop at another one of its vertices
        assert decided_by_tiebreak >= 20


def _convex_combination_below(J, q):
    """Reference membership of q in P(J): phase-1 feasibility of
    sum_k lambda_k g_k + slack = q with sum(lambda) = 1."""
    gens, n = J.generators, J.n
    rows = [[g[i] for g in gens] + [int(j == i) for j in range(n)]
            for i in range(n)]
    rows.append([1] * len(gens) + [0] * n)
    res = simplex.solve_min(rows, [*q, 1], [0] * (len(gens) + n))
    return res.status == simplex.OPTIMAL


class TestNewtonMembership:
    def test_matches_convex_combination_reference(self):
        rng = random.Random(16)
        verdicts = []
        for _ in range(120):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            J = normalize_generators(gens, n)
            # about half the coordinates are zero
            points = [tuple(F(rng.randint(0, 12), rng.randint(1, 4))
                            * rng.randint(0, 1) for _ in range(n))
                      for _ in range(4)]
            for q in points + list(J.generators):
                verdicts.append(newton_membership(J, q))
                assert verdicts[-1] == _convex_combination_below(J, q)
        assert 100 < verdicts.count(False) < verdicts.count(True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_ideal_contains_the_orthant(self, n):
        # the Newton-scale LP is unbounded: every scale of the orthant
        # lies in the orthant
        J = unit_ideal(n)
        for q in [(0,) * n, (F(1, 3),) * n, tuple(range(n))]:
            assert newton_membership(J, q)
            assert _convex_combination_below(J, q)


class TestHowald:
    def test_cusp(self):
        assert howald_lct(CUSP) == F(5, 6)

    def test_maximal_n2(self):
        assert howald_lct(maximal_ideal(2)) == 2

    def test_capped_by_degree_one_face(self):
        J = normalize_generators([(3, 0), (1, 1), (0, 3)], 2)
        assert howald_lct(J) == 1

    def test_duality_on_randoms(self):
        rng = random.Random(10)
        for _ in range(40):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 6)
            assert kiselman_lct(J).c == howald_lct(J)

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            howald_lct(unit_ideal(1))


class TestDiagonalLct:
    def test_examples(self):
        assert diagonal_lct((2, 3)) == F(5, 6)
        assert diagonal_lct((1, 1)) == 2
        assert diagonal_lct((1, 2, 6)) == F(5, 3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            diagonal_lct((1, 0))

    def test_matches_kiselman_on_pure_powers(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = tuple(sorted(rng.randint(1, 6) for _ in range(n)))
            assert kiselman_lct(diagonal_ideal(a)).c == diagonal_lct(a)


class TestWorstDiagonalMinorant:
    def test_cusp(self):
        w = worst_diagonal_minorant(CUSP)
        assert w == (F(2), F(3))

    def test_maximal_symmetric(self):
        w = worst_diagonal_minorant(maximal_ideal(3))
        assert w == (F(1), F(1), F(1))

    def test_equal_powers(self):
        w = worst_diagonal_minorant(normalize_generators([(4, 0), (0, 4)], 2))
        assert w == (F(4), F(4))

    def test_threshold_preserved(self):
        rng = random.Random(13)
        for _ in range(25):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 5)
            cert = kiselman_lct(J)
            if any(v == 0 for v in cert.x0):
                continue
            w = worst_diagonal_minorant(J)
            assert diagonal_lct(w) == cert.c

    def test_degenerate_boundary_point(self):
        with pytest.raises(DegenerateMinorantError):
            worst_diagonal_minorant(normalize_generators([(2, 0)], 2))
        with pytest.raises(DegenerateMinorantError):
            minorant_from_certificate(
                kiselman_lct(normalize_generators([(2, 0)], 2)))


class TestOneKiselmanSolvePerReport:
    def test_report_reuses_its_certificate(self, monkeypatch):
        J = normalize_generators(
            [(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1)], 3)
        calls = []
        real_solve = simplex.solve_min

        def counting_solve(rows, rhs, *costs):
            calls.append(len(costs))
            return real_solve(rows, rhs, *costs)

        minorants = []

        def recording_minorant(cert):
            minorants.append(minorant_from_certificate(cert))
            return minorants[-1]

        monkeypatch.setattr(simplex, "solve_min", counting_solve)
        monkeypatch.setattr(thresholds, "solve_min", counting_solve)
        monkeypatch.setattr(report, "minorant_from_certificate",
                            recording_minorant)
        rep = build_ideal_report(J)
        assert all(v > 0 for v in rep.certificate.x0)
        assert rep.checks["minorant_chain"]
        # Kiselman with its n lex-min tiebreaks, then Howald
        assert calls == [1 + J.n, 1]
        assert minorants == [worst_diagonal_minorant(J)]


class TestReportInput:
    def test_non_isolated_raises(self):
        # the threshold exists, but the multiplicities do not
        J = normalize_generators([(2, 0), (1, 1)], 2)
        assert kiselman_lct(J).c > 0
        with pytest.raises(NonIsolatedError):
            build_ideal_report(J)


class TestSkodaSandwich:
    def test_on_randoms(self):
        rng = random.Random(14)
        for _ in range(40):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 6)
            c = kiselman_lct(J).c
            e1 = min(sum(g) for g in J.generators)
            assert F(1, e1) <= c <= F(J.n, e1)

    def test_e1_homogeneity(self):
        rng = random.Random(15)
        for _ in range(30):
            J = random_isolated_ideal(rng, rng.randint(1, 4), 6)
            n = J.n
            uniform = (F(1, n),) * n
            assert n * refined_lelong(J, uniform) == \
                min(sum(g) for g in J.generators)


class TestProbe:
    def test_cusp_below_threshold_converges(self):
        assert numeric_integrability_probe(CUSP, F(3, 4)).verdict == \
            "converges"

    def test_cusp_above_threshold_diverges(self):
        assert numeric_integrability_probe(CUSP, F(9, 10)).verdict == \
            "diverges"

    def test_univariate_below(self):
        J = normalize_generators([(2,)], 1)
        assert numeric_integrability_probe(J, F(2, 5)).verdict == "converges"

    def test_trail_recorded(self):
        res = numeric_integrability_probe(CUSP, F(3, 4))
        assert len(res.trail) == len(PROBE_SCHEDULE)
        assert res.trail[0][2] is None
        assert all(r[2] is not None for r in res.trail[1:])

    def test_resource_cap_inconclusive(self):
        # 128^4 = 2^28 points at the default grid, over the 2^24 cap
        J = maximal_ideal(4)
        assert ProbeConfig().grid ** J.n > PROBE_MAX_POINTS
        res = numeric_integrability_probe(J, F(3, 4))
        assert (res.verdict, res.trail) == ("inconclusive", ())
        assert res.note == (
            "grid ** n = 128 ** 4 points exceed PROBE_MAX_POINTS = "
            "16777216; a smaller --probe-grid lowers the grid")

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            numeric_integrability_probe(CUSP, 0)

    def test_numpy_loaded_only_by_probe(self):
        src = str(Path(lctk.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, lctk, lctk.serialize; "
                "print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            numeric_integrability_probe(unit_ideal(2), F(1, 2))

    def test_deterministic(self):
        a = numeric_integrability_probe(CUSP, F(3, 4))
        b = numeric_integrability_probe(CUSP, F(3, 4))
        assert a == b
