import random
from itertools import count
from math import comb

import pytest

from lctk import (
    BACKEND,
    HilbertTable,
    InvariantError,
    NonIsolatedError,
    UnitIdealError,
    UnstableFitError,
    covolume_times_factorial,
    diagonal_ideal,
    diagonal_mults,
    fit_multiplicities,
    hilbert_table,
    maximal_ideal,
    mixed_multiplicities,
    newton_membership,
    normalize_generators,
    unit_ideal,
    validate_sequence,
)
from lctk.multiplicities import (
    BASE_CAP,
    MultiplicitySequence,
    first_multiplicity,
    mixed_covolumes,
)
from lctk.report import random_isolated_ideal

from conftest import colength_of_product, product_ideal, ref_mixed_covolumes

CUSP = normalize_generators([(2, 0), (0, 3)], 2)

COMPILED_4D = pytest.mark.skipif(
    BACKEND != "compiled",
    reason="4D tables and their explicit-product reference are slow on "
           "the pure lane; 4D parity is covered in test_kernels")


def staircase(n, base):
    """The cells the fit reads: the differences of order (n-j, j) at the
    diagonal points (base + i, base + i), i = 0..2."""
    return {(base + x, base + y) for i in range(3)
            for x in range(i, n + i + 1)
            for y in range(i, n + 2 * i - x + 1)}


class TestDiagonalMults:
    def test_examples(self):
        assert diagonal_mults((2, 3)).e == (1, 2, 6)
        assert diagonal_mults((1, 1, 1)).e == (1, 1, 1, 1)
        assert diagonal_mults((2, 2, 5)).e == (1, 2, 4, 20)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            diagonal_mults((3, 2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            diagonal_mults((0, 2))


class TestMultiplicitySequence:
    def test_must_start_at_one(self):
        with pytest.raises(ValueError):
            MultiplicitySequence((2, 2))

    def test_needs_n_at_least_one(self):
        for e in ((), (1,)):
            with pytest.raises(ValueError):
                MultiplicitySequence(e)

    def test_synthetic_nonconvex_is_constructible(self):
        # validate_sequence is the judge, not the constructor
        seq = MultiplicitySequence((1, 3, 4))
        assert not validate_sequence(seq).all_ok


class TestHilbertTable:
    def test_maximal_ideal_closed_form(self):
        n = 2
        table = hilbert_table(maximal_ideal(n), 1)
        for r, t, v in table.rows():
            assert v == comb(n + r + t - 1, n)

    def test_cusp_cells_match_explicit_products(self):
        table = hilbert_table(CUSP, 0)
        assert table.cell(0, 1) == 6
        assert table.cell(1, 1) == colength_of_product(CUSP, 1, 1) == 8
        for r, t, v in table.rows():
            if r == 0 and t == 0:
                continue
            assert v == colength_of_product(CUSP, t, r)

    def test_non_isolated_rejected(self):
        with pytest.raises(NonIsolatedError):
            hilbert_table(normalize_generators([(1, 1)], 2), 1)

    def test_diagonal_and_general_paths_agree(self):
        from lctk import kernels

        diag = diagonal_ideal((2, 4))
        for t in range(2, 5):
            power = kernels.power_minimal(diag.generators, t, 2, 512)
            assert kernels.table_column(power, range(2, 5), 2) == [
                kernels.diagonal_cell((2, 4), r, t) for r in range(2, 5)]

    @pytest.mark.parametrize("J, unused", [
        (diagonal_ideal((3,)), "table_column"),
        (diagonal_ideal((4, 2)), "table_column"),
        (diagonal_ideal((2, 3, 1)), "table_column"),
        (normalize_generators([(2, 0), (1, 1), (0, 3)], 2), "diagonal_cell"),
        (normalize_generators([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)],
                              3), "diagonal_cell"),
    ])
    def test_generator_count_picks_the_count(self, monkeypatch, J, unused):
        # n minimal generators and an isolated zero make an ideal diagonal
        from lctk import kernels

        def unused_kernel(*args):
            raise AssertionError(f"{unused} called for {J}")

        expected = {(r, t): colength_of_product(J, t, r)
                    for r, t in staircase(J.n, 1)}
        monkeypatch.setattr(kernels, unused, unused_kernel)
        assert hilbert_table(J, 1).values == expected

    @pytest.mark.parametrize("n, count", [(1, 9), (2, 16), (3, 24), (4, 33)])
    def test_staircase_cell_counts(self, n, count):
        assert len(staircase(n, 0)) == count < (n + 3) ** 2

    @pytest.mark.parametrize("J", [
        diagonal_ideal((3,)),
        diagonal_ideal((2, 3)),
        normalize_generators([(2, 0), (1, 1), (0, 3)], 2),
        diagonal_ideal((1, 2, 2)),
        normalize_generators([(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 1)], 3),
        pytest.param(diagonal_ideal((1, 1, 2, 2)), marks=COMPILED_4D),
        pytest.param(normalize_generators(
            [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2),
             (1, 1, 0, 0)], 4), marks=COMPILED_4D),
    ], ids=lambda J: f"n{J.n}-{len(J.generators)}gens")
    def test_staircase_cells_match_explicit_products(self, J):
        # n generators take the diagonal path, more take the generic one
        # (at n = 1 every isolated-zero ideal is diagonal)
        base = 1
        table = hilbert_table(J, base)
        assert set(table.values) == staircase(J.n, base)
        for r, t, v in table.rows():
            assert v == colength_of_product(J, t, r), (r, t)

    def test_cell_outside_staircase_raises(self):
        table = hilbert_table(CUSP, 1)
        top = table.base + table.window
        assert table.cell(top, 3) and table.cell(3, top)
        for r, t in [(top, top), (1, 4), (0, 1), (top + 1, 3)]:
            with pytest.raises(InvariantError, match="outside the staircase"):
                table.cell(r, t)

    @pytest.mark.parametrize("J", [
        maximal_ideal(1), CUSP,
        normalize_generators([(2, 0), (1, 1), (0, 3)], 2),
        normalize_generators([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)], 3),
    ])
    def test_fit_reads_every_counted_cell_and_no_other(self, monkeypatch, J):
        # the fit reads every counted cell, and no other: a change to
        # _POINTS or to the difference orders must change the staircase too
        read = set()
        cell = HilbertTable.cell

        def recording_cell(table, r, t):
            read.add((r, t))
            return cell(table, r, t)

        monkeypatch.setattr(HilbertTable, "cell", recording_cell)
        table = fit_multiplicities(J).table
        assert read == set(table.values) == staircase(J.n, table.base)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_window_is_derived(self, n):
        assert HilbertTable(n=n, base=5, values=()).window == n + 2
        assert hilbert_table(maximal_ideal(n), 0).window == n + 2

    @pytest.mark.parametrize("base", [-1, -5])
    def test_negative_base_rejected(self, base):
        with pytest.raises(ValueError, match="base must be >= 0"):
            hilbert_table(CUSP, base)

    def test_non_increasing_table_is_invariant_error(self, monkeypatch):
        from lctk import InvariantError, kernels

        monkeypatch.setattr(kernels, "table_column",
                            lambda gens, rs, n: [7] * len(rs))
        J = normalize_generators([(2, 0), (1, 1), (0, 3)], 2)
        with pytest.raises(InvariantError, match="not increasing in t"):
            hilbert_table(J, 1)


class TestMixedMultiplicities:
    def test_cusp_matches_diagonal_closed_form(self):
        assert mixed_multiplicities(CUSP).e == diagonal_mults((2, 3)).e

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_maximal_all_ones(self, n):
        assert mixed_multiplicities(maximal_ideal(n)).e == (1,) * (n + 1)

    def test_truncated_cusp(self):
        J = normalize_generators([(3, 0), (1, 1), (0, 3)], 2)
        assert mixed_multiplicities(J).e == (1, 2, 6)

    def test_newton_invariance(self):
        # (1, 2) sits on the segment joining (2, 0) and (0, 4), so both
        # generator sets share one Newton polyhedron
        a = normalize_generators([(2, 0), (0, 4)], 2)
        b = normalize_generators([(2, 0), (1, 2), (0, 4)], 2)
        assert mixed_multiplicities(a).e == mixed_multiplicities(b).e

    def test_univariate(self):
        assert mixed_multiplicities(normalize_generators([(5,)], 1)).e == \
            (1, 5)

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            mixed_multiplicities(unit_ideal(2))

    def test_non_isolated_rejected(self):
        with pytest.raises(NonIsolatedError):
            mixed_multiplicities(normalize_generators([(1, 1)], 2))

    def test_e1_is_minimal_degree(self):
        rng = random.Random(21)
        for _ in range(20):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 5)
            e = mixed_multiplicities(J).e
            assert e[1] == first_multiplicity(J)

    def test_every_sequence_validates(self):
        rng = random.Random(22)
        for _ in range(20):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 5)
            assert validate_sequence(mixed_multiplicities(J)).all_ok

    def test_monotone_under_inclusion(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 3)
            J = random_isolated_ideal(rng, n, 5)
            extra = tuple(rng.randint(0, 4) for _ in range(n))
            if not any(extra):
                continue
            bigger = normalize_generators(
                list(J.generators) + [extra], n)
            ej = mixed_multiplicities(J).e
            ek = mixed_multiplicities(bigger).e
            assert all(x >= y for x, y in zip(ej, ek))

    def test_fit_reports_base_and_table(self):
        fit = fit_multiplicities(CUSP)
        assert fit.mults.e == (1, 2, 6)
        assert fit.table.base == 3  # the maximal generator degree

    def test_unstable_fit_keeps_last_table(self, monkeypatch):
        from lctk import multiplicities

        calls = count()
        monkeypatch.setattr(multiplicities, "_mixed_difference",
                            lambda *args: next(calls))
        with pytest.raises(UnstableFitError) as info:
            fit_multiplicities(CUSP)
        table = info.value.table
        assert table.base == BASE_CAP
        assert table == hilbert_table(CUSP, BASE_CAP)

    @pytest.mark.skipif(BACKEND != "compiled",
                        reason="generic 4D counting is slow on the pure "
                               "lane; 4D parity is covered in test_kernels")
    def test_4d_general_path_newton_invariance(self):
        # the extra generator lies on the facet sum(x) = 2, so the
        # polyhedron (hence the sequence) matches the pure-power ideal,
        # but the computation runs through the generic 4D counter
        J = normalize_generators(
            [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
             (1, 1, 0, 0)], 4)
        assert mixed_multiplicities(J).e == (1, 2, 4, 8, 16)

    @pytest.mark.skipif(BACKEND != "compiled",
                        reason="generic 4D counting is slow on the pure "
                               "lane; 4D parity is covered in test_kernels")
    def test_4d_general_path_strictly_smaller_polyhedron(self):
        J = normalize_generators(
            [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
             (1, 1, 0, 0)], 4)
        e = mixed_multiplicities(J).e
        assert e[1] == 2
        assert validate_sequence(e).all_ok
        from lctk import kiselman_lct, main_bound

        assert main_bound(e) <= kiselman_lct(J).c


class TestCovolume:
    def test_cusp(self):
        assert covolume_times_factorial(CUSP) == 6

    def test_maximal_n2(self):
        assert covolume_times_factorial(maximal_ideal(2)) == 1

    def test_truncated_cusp_shoelace(self):
        J = normalize_generators([(3, 0), (1, 1), (0, 3)], 2)
        assert covolume_times_factorial(J) == 6

    def test_univariate(self):
        assert covolume_times_factorial(normalize_generators([(4,)], 1)) == 4

    def test_3d_simplex(self):
        assert covolume_times_factorial(maximal_ideal(3)) == 1
        assert covolume_times_factorial(diagonal_ideal((2, 3, 6))) == 36

    def test_interior_generator_ignored(self):
        # the extra generator sits above the hull facet; same covolume
        J = normalize_generators(
            [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 3)
        assert covolume_times_factorial(J) == 8

    def test_matches_top_multiplicity(self):
        rng = random.Random(24)
        for _ in range(25):
            J = random_isolated_ideal(rng, rng.randint(1, 3), 5)
            assert covolume_times_factorial(J) == \
                mixed_multiplicities(J).e[-1]

    def test_maximal_n4(self):
        assert covolume_times_factorial(maximal_ideal(4)) == 1


def _dense_isolated_ideal(rng, n, max_degree):
    """Pure powers on every axis plus up to 4n random extra generators."""
    gens = [tuple(rng.randint(1, max_degree) if i == axis else 0
                  for i in range(n)) for axis in range(n)]
    gens += [tuple(rng.randint(0, max_degree) for _ in range(n))
             for _ in range(rng.randint(1, 4 * n))]
    return normalize_generators([g for g in gens if any(g)], n)


class TestCovolumeHigherDimensions:
    """Exact identities at n = 4 and 5, where the table fit is too slow
    on the pure lane to serve as the reference."""

    @pytest.mark.parametrize("weights", [
        (1, 1, 1, 2), (2, 3, 4, 5), (5, 1, 3, 2), (1, 2, 1, 3, 2),
        (2, 2, 3, 3, 4)])
    def test_diagonal_is_product_of_weights(self, weights):
        prod = 1
        for a in weights:
            prod *= a
        assert covolume_times_factorial(diagonal_ideal(weights)) == prod

    @pytest.mark.parametrize("n", [4, 5])
    def test_power_scales_by_k_to_the_n(self, n):
        rng = random.Random(40 + n)
        for _ in range(8):
            J = _dense_isolated_ideal(rng, n, 3)
            base = covolume_times_factorial(J)
            for k in (2, 3):
                assert covolume_times_factorial(
                    product_ideal(J, k, 0)) == k ** n * base

    @pytest.mark.parametrize("n", [4, 5])
    def test_permutation_invariant(self, n):
        rng = random.Random(50 + n)
        for _ in range(10):
            J = _dense_isolated_ideal(rng, n, 4)
            perm = list(range(n))
            rng.shuffle(perm)
            K = normalize_generators(
                [tuple(g[i] for i in perm) for g in J.generators], n)
            assert covolume_times_factorial(K) == \
                covolume_times_factorial(J)

    @pytest.mark.parametrize("n", [4, 5])
    def test_generator_inside_newton_polyhedron_changes_nothing(self, n):
        # a point of P(J) that no generator divides is a new minimal
        # generator that leaves P(J), and so the covolume, as it was
        rng = random.Random(60 + n)
        added = 0
        for _ in range(100):
            J = _dense_isolated_ideal(rng, n, 3)
            p = tuple(rng.randint(0, 2) for _ in range(n))
            K = normalize_generators(J.generators + (p,), n)
            if K == J or not newton_membership(J, p):
                continue
            added += 1
            assert covolume_times_factorial(K) == \
                covolume_times_factorial(J)
        assert added >= 5

    def test_points_on_a_facet_change_nothing(self):
        # (1, 1, 0, 0) and its permutations lie on the one compact facet
        # x_1 + ... + x_4 = 2 of P((2, 2, 2, 2)) without being vertices
        n = 4
        J = diagonal_ideal((2,) * n)
        extra = [tuple(int(i in pair) for i in range(n))
                 for pair in ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))]
        K = normalize_generators(J.generators + tuple(extra), n)
        assert len(K.generators) == n + len(extra)
        assert covolume_times_factorial(K) == 2 ** n


class TestMixedCovolumes:
    """e from the covolumes of P(m) + k P(J), and the table's certificate."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_per_k_reference_on_seeded_ideals(self, n):
        # pure powers a_i plus mixed generators below them, so that the
        # ideals (n >= 2) are not diagonal
        rng = random.Random(90 + n)
        for _ in range(12):
            a = [rng.randint(2, 6 if n < 5 else 4) for _ in range(n)]
            gens = [tuple(a[i] * (i == axis) for i in range(n))
                    for axis in range(n)]
            draws = [tuple(rng.randrange(v) for v in a)
                     for _ in range(rng.randint(n, 3 * n))]
            J = normalize_generators(
                gens + [g for g in draws if sum(map(bool, g)) > 1], n)
            assert mixed_covolumes(J) == ref_mixed_covolumes(J)

    @pytest.mark.parametrize("gens, n", [
        # e_x + y^2 and e_y + xy coincide at k = 1, inside the facet
        ([(2, 0), (1, 1), (0, 2)], 2),
        ([(3, 0, 0), (0, 2, 0), (0, 0, 5)], 3),     # diagonal
    ])
    def test_equals_per_k_reference_on_named_ideals(self, gens, n):
        J = normalize_generators(gens, n)
        assert mixed_covolumes(J) == ref_mixed_covolumes(J)

    @pytest.mark.parametrize("weights", [
        (4,), (2, 3), (3, 3), (1, 2, 5), (2, 2, 2, 3), (5, 1, 3, 2),
        (1, 1, 2, 3, 4), (2, 3, 3, 4, 5)])
    def test_diagonal_closed_form(self, weights):
        assert mixed_covolumes(diagonal_ideal(weights)) == \
            diagonal_mults(sorted(weights)).e

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_scales_e_j_by_k_to_the_j(self, n):
        rng = random.Random(70 + n)
        for _ in range(6):
            J = _dense_isolated_ideal(rng, n, 3)
            e = mixed_covolumes(J)
            for k in (2, 3):
                assert mixed_covolumes(product_ideal(J, k, 0)) == \
                    tuple(k ** j * v for j, v in enumerate(e))

    @pytest.mark.parametrize("n", [4, 5])
    def test_top_is_the_covolume(self, n):
        rng = random.Random(80 + n)
        for _ in range(8):
            J = _dense_isolated_ideal(rng, n, 3)
            e = mixed_covolumes(J)
            assert e[n] == covolume_times_factorial(J)
            assert e[1] == first_multiplicity(J)
            assert validate_sequence(e).all_ok

    @pytest.mark.parametrize("covolumes, message", [
        ((2, 2), "not an integer polynomial"),     # 1 + 3k/2 - k^2/2
        ((10, 31), "e_1 = 3/2 is not a positive"),  # 1 + 3k + 6k^2
        ((5, 21), "e_1 = -2/2 is not a positive"),  # 1 - 2k + 6k^2
    ])
    def test_bad_covolumes_are_invariant_errors(self, monkeypatch,
                                                covolumes, message):
        from lctk import multiplicities

        monkeypatch.setattr(multiplicities, "_covolumes",
                            lambda pairs, ks: list(covolumes))
        with pytest.raises(InvariantError, match=message):
            mixed_covolumes(CUSP)

    def test_wrong_covolumes_are_invariant_error(self, monkeypatch, tmp_path,
                                                 capsys):
        from lctk import cli, multiplicities

        monkeypatch.setattr(multiplicities, "mixed_covolumes",
                            lambda ideal: (1, 2, 7))
        with pytest.raises(InvariantError, match="disagree"):
            fit_multiplicities(CUSP)
        path = tmp_path / "cusp.json"
        path.write_text('{"n": 2, "generators": [[2, 0], [0, 3]]}')
        assert cli.main(["mults", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "disagree with the mixed covolumes [1, 2, 7]" in err


class TestValidateSequence:
    def test_good(self):
        assert validate_sequence((1, 2, 6)).all_ok

    def test_all_ones(self):
        assert validate_sequence((1, 1, 1, 1)).all_ok

    def test_nonconvex_fails(self):
        rep = validate_sequence((1, 3, 4))
        assert not rep.log_convex
        assert rep.failures

    def test_one_log_convexity_message(self):
        # e_1^2 > e_0 e_2 and e_2^2 > e_1 e_3 both fail, one verdict
        rep = validate_sequence((1, 3, 4, 5))
        assert not rep.log_convex
        assert sum(f.startswith("log-convexity") for f in rep.failures) == 1
