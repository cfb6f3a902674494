import random
from fractions import Fraction as F

import pytest

from lctk import (
    build_bounds_report,
    chain_check,
    compare_geometric_bound,
    compare_mixed_bound,
    d_membership,
    f_value,
    main_bound,
    skoda_interval,
)
from lctk.bounds import (
    EQ,
    GT,
    LT,
    derivative_certificates,
    random_dominating_pair,
    random_interior_dvector,
    root_bracket,
)


class TestDMembership:
    def test_examples(self):
        assert d_membership((2, 6))
        assert d_membership((1, 1, 1))
        assert not d_membership((3, 4))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            d_membership((1, 0))

    def test_strict_boundary(self):
        assert d_membership((1, 1)) and not d_membership((1, 1), strict=True)

    def test_closed_under_product(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_interior_dvector(rng, n)
            b = random_interior_dvector(rng, n)
            assert d_membership(tuple(x * y for x, y in zip(a, b)))


class TestFValue:
    def test_all_ones(self):
        for n in range(1, 6):
            assert f_value((1,) * n) == n

    def test_cumulative_products(self):
        assert f_value((2, 6)) == F(5, 6)

    def test_two_terms(self):
        assert f_value((1, 2)) == F(3, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            f_value((1, 0))

    def test_substitution_identity(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = sorted(F(rng.randint(1, 9), rng.randint(1, 9))
                       for _ in range(n))
            t = []
            acc = F(1)
            for w in a:
                acc *= w
                t.append(acc)
            assert f_value(t) == sum(1 / w for w in a)

    def test_monotone_on_dominating_pairs(self):
        rng = random.Random(33)
        for _ in range(60):
            n = rng.randint(1, 6)
            a, b = random_dominating_pair(rng, n)
            assert all(x >= y for x, y in zip(a, b))
            assert d_membership(a, strict=True)
            assert d_membership(b, strict=True)
            assert f_value(a) <= f_value(b)


class TestMainBound:
    def test_cusp_sequence(self):
        assert main_bound((1, 2, 6)) == F(5, 6)

    def test_all_ones(self):
        for n in range(1, 5):
            assert main_bound((1,) * (n + 1)) == n

    def test_vanishing_e1_rejected(self):
        for e in ((1, 0), (1, 0, 0), (1,)):
            with pytest.raises(ValueError):
                main_bound(e)

    def test_equals_f_on_tail(self):
        assert main_bound((1, 2, 6)) == f_value((2, 6))


class TestSkoda:
    def test_examples(self):
        assert skoda_interval(2, 2) == (F(1, 2), F(1))
        assert skoda_interval(1, 3) == (F(1), F(3))
        assert skoda_interval(5, 4) == (F(1, 5), F(4, 5))

    def test_zero_e1_rejected(self):
        with pytest.raises(ValueError):
            skoda_interval(0, 3)


class TestGeometricBound:
    def test_diagonal_dominates(self):
        assert compare_geometric_bound(F(5, 6), 6, 2)[0] == GT

    def test_maximal_saturates(self):
        for n in range(1, 5):
            assert compare_geometric_bound(F(n), 1, n)[0] == EQ

    def test_truncated_cusp(self):
        assert compare_geometric_bound(F(1), 6, 2)[0] == GT

    def test_below(self):
        assert compare_geometric_bound(F(1, 2), 1, 2)[0] == LT


class TestMixedBound:
    def test_tight_on_diagonal(self):
        assert compare_mixed_bound(F(5, 6), 2, 6, 2)[0] == EQ

    def test_maximal(self):
        for n in range(2, 5):
            assert compare_mixed_bound(F(n), 1, 1, n)[0] == EQ

    def test_truncated_cusp(self):
        assert compare_mixed_bound(F(1), 2, 6, 2)[0] == GT

    def test_nonpositive_u(self):
        assert compare_mixed_bound(F(1, 3), 2, 6, 2)[0] == LT

    def test_needs_two_variables(self):
        with pytest.raises(ValueError):
            compare_mixed_bound(F(1), 1, 1, 1)


class TestChain:
    def test_diagonal_equality_at_mixed_link(self):
        rep = chain_check((1, 2, 6))
        assert rep.main_vs_mixed == EQ
        assert rep.mixed_vs_geometric == GT
        assert rep.ok

    def test_all_ones_full_equality(self):
        rep = chain_check((1, 1, 1, 1))
        assert rep.main_vs_mixed == EQ
        assert rep.mixed_vs_geometric == EQ

    def test_strict_chain(self):
        rep = chain_check((1, 2, 5, 15))
        assert rep.main_vs_mixed == GT
        assert rep.mixed_vs_geometric == GT
        assert rep.ok

    def test_geometric_family_equality(self):
        # e_n = e_1^n makes the two reference bounds coincide (rationally)
        rep = chain_check((1, 2, 4, 8))
        assert rep.mixed_vs_geometric == EQ

    def test_univariate(self):
        assert chain_check((1, 4)).ok

    @pytest.mark.parametrize("e", [
        (1, 2 ** 900, 2 ** 1800 + 1),
        (1, 2 ** 3000, 2 ** 6000, 2 ** 9000, 2 ** 12000 + 1),
    ])
    def test_near_geometric_brackets_separate(self, e):
        # e_n = e_1^n + 1: the reference bounds differ (strict AM-GM), but
        # their brackets separate only past 4096 bits
        rep = chain_check(e)
        assert rep.mixed_vs_geometric == GT
        mixed_lo, geometric_hi = rep.witnesses[1]
        assert mixed_lo > geometric_hi

    def test_holds_on_random_cone_points(self):
        rng = random.Random(34)
        for _ in range(50):
            n = rng.randint(1, 5)
            e = [1]
            ratio = rng.randint(1, 4)
            for _ in range(n):
                e.append(e[-1] * ratio)
                ratio += rng.randint(0, 3)
            assert chain_check(tuple(e)).ok


class TestDerivativeCertificates:
    def test_interior_points(self):
        rng = random.Random(35)
        for _ in range(60):
            n = rng.randint(1, 6)
            t = random_interior_dvector(rng, n)
            assert all(derivative_certificates(t))


class TestRootBracket:
    def test_brackets_enclose(self):
        rng = random.Random(36)
        for _ in range(40):
            x = F(rng.randint(1, 50), rng.randint(1, 50))
            k = rng.randint(2, 5)
            lo, hi = root_bracket(x, k, 64)
            assert lo ** k <= x <= hi ** k
            assert hi - lo <= F(2, 1 << 64)


class TestBoundsReport:
    def test_cusp_report(self):
        rep = build_bounds_report((1, 2, 6), F(5, 6))
        assert rep.main == F(5, 6)
        assert rep.skoda_low == F(1, 2)
        assert rep.skoda_high == F(1)
        assert rep.geometric_cmp == GT
        assert rep.mixed_cmp == EQ
        assert rep.chain.ok
        assert rep.in_cone

    def test_without_c(self):
        rep = build_bounds_report((1, 1, 1))
        assert rep.main == 2
        # no comparison against c was made, so no verdict is given
        assert rep.geometric_cmp is None and rep.mixed_cmp is None
        assert rep.details == ()

    def test_raw_sequence_validated(self):
        for e in ((2, 3), (1,), (1, 0, 2), (1, 2.5, 6)):
            with pytest.raises(ValueError):
                build_bounds_report(e)
            with pytest.raises(ValueError):
                chain_check(e)


class TestRationalReaders:
    """Every rational a bounds call takes is read by ``lattice.rational``:
    text is not parsed and a bool is not a number."""

    @pytest.mark.parametrize("bad", ["5/6", True])
    def test_report_c(self, bad):
        with pytest.raises(ValueError, match="finite rational"):
            build_bounds_report((1, 2, 6), bad)

    @pytest.mark.parametrize("bad", ["5/6", True])
    def test_vector_entries(self, bad):
        for call in (f_value, d_membership, derivative_certificates):
            with pytest.raises(ValueError, match="finite rational"):
                call((2, bad))

    @pytest.mark.parametrize("bad", ["5/6", True])
    def test_comparisons_and_radicand(self, bad):
        with pytest.raises(ValueError, match="finite rational"):
            compare_geometric_bound(bad, 6, 2)
        with pytest.raises(ValueError, match="finite rational"):
            compare_mixed_bound(bad, 2, 6, 2)
        with pytest.raises(ValueError, match="finite rational"):
            root_bracket(bad, 2, 8)

    def test_numbers_read_exactly(self):
        assert f_value((2, 6)) == f_value((F(2), 6.0)) == F(5, 6)
        assert build_bounds_report((1, 2, 6), 1) == \
            build_bounds_report((1, 2, 6), F(1))
