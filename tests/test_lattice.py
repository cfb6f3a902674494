import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctk import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    NonIsolatedError,
    is_isolated_zero,
    maximal_ideal,
    newton_membership,
    normalize_generators,
    unit_ideal,
)

from conftest import brute_colength, colength, product_ideal

vectors = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    min_size=1, max_size=10)


class TestNormalize:
    def test_dominated_dropped(self):
        J = normalize_generators([(2, 0), (3, 0), (0, 3)], 2)
        assert J.generators == ((0, 3), (2, 0))

    def test_singleton_fixed_point(self):
        J = normalize_generators([(1, 1)], 2)
        assert J.generators == ((1, 1),)

    def test_interior_dominated(self):
        J = normalize_generators([(2, 1), (1, 2), (2, 2)], 2)
        assert J.generators == ((1, 2), (2, 1))

    def test_zero_vector_gives_unit(self):
        J = normalize_generators([(0, 0), (2, 1)], 2)
        assert J.is_unit
        assert J.generators == ((0, 0),)

    def test_empty_rejected(self):
        with pytest.raises(EmptyGeneratorsError):
            normalize_generators([], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            normalize_generators([(1, 2, 3)], 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_generators([(1, -1)], 2)

    @pytest.mark.parametrize("vec", [(1.5, 0), ("3", 0), (0, "x"),
                                     (True, 0)])
    def test_non_natural_rejected(self, vec):
        # checked as given: int() would truncate 1.5, parse "3" and count
        # True as 1
        with pytest.raises(ValueError):
            normalize_generators([vec, (0, 2)], 2)

    def test_integral_values_accepted(self):
        J = normalize_generators([(2.0, 0), (0, 3)], 2)
        assert J.generators == ((0, 3), (2, 0))
        assert all(type(e) is int for g in J.generators for e in g)

    @given(vectors)
    @settings(max_examples=60)
    def test_idempotent_and_order_independent(self, vecs):
        J1 = normalize_generators(vecs, 3)
        J2 = normalize_generators(list(reversed(vecs)), 3)
        J3 = normalize_generators(J1.generators, 3)
        assert J1 == J2 == J3


class TestIsolated:
    def test_pure_powers(self):
        assert is_isolated_zero(normalize_generators([(2, 0), (0, 3)], 2))

    def test_single_mixed_generator(self):
        assert not is_isolated_zero(normalize_generators([(1, 1)], 2))

    def test_maximal(self):
        assert is_isolated_zero(maximal_ideal(2))

    def test_unit(self):
        assert is_isolated_zero(unit_ideal(3))


class TestColength:
    """The cut-family count with every cut at the generator's degree, the
    colength route of the colength table, against enumeration."""

    def test_maximal_n2(self):
        assert colength(maximal_ideal(2)) == 1

    def test_cusp(self):
        J = normalize_generators([(2, 0), (0, 3)], 2)
        assert colength(J) == brute_colength(J.generators, 2) == 6

    def test_square_of_maximal(self):
        J = normalize_generators([(2, 0), (1, 1), (0, 2)], 2)
        assert colength(J) == brute_colength(J.generators, 2) == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_power_of_maximal_closed_form(self, n, k):
        J = product_ideal(maximal_ideal(n), k, 0)
        assert colength(J) == comb(n + k - 1, n)

    def test_unit_ideal_is_zero(self):
        assert colength(unit_ideal(2)) == 0

    def test_non_isolated_raises(self):
        with pytest.raises(NonIsolatedError):
            colength(normalize_generators([(1, 1)], 2))

    def test_random_against_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(1, 5) if i == a else 0
                          for i in range(n)) for a in range(n)]
            gens += [tuple(rng.randint(0, 5) for _ in range(n))
                     for _ in range(rng.randint(0, 3))]
            gens = [g for g in gens if any(g)]
            J = normalize_generators(gens, n)
            assert colength(J) == brute_colength(J.generators, n)


class TestScaleAndMultiply:
    """m^r * J^t built by the kernels' powers and product, the route of the
    colength oracle for table cells."""

    def test_identity(self):
        J = normalize_generators([(2, 0), (0, 3)], 2)
        assert product_ideal(J, 1, 0) == J

    def test_square_of_maximal(self):
        J = product_ideal(maximal_ideal(2), 2, 0)
        assert J.generators == ((0, 2), (1, 1), (2, 0))

    def test_pure_scale(self):
        J = normalize_generators([(2, 0), (0, 3)], 2)
        assert product_ideal(J, 0, 2).generators == \
            ((0, 2), (1, 1), (2, 0))

    def test_unit_convention(self):
        J = product_ideal(maximal_ideal(2), 0, 0)
        assert J.is_unit
        assert colength(J) == 0

    def test_degree_cap(self):
        from lctk import DegreeCapError

        J = normalize_generators([(300, 0), (0, 300)], 2)
        with pytest.raises(DegreeCapError):
            product_ideal(J, 2, 0)

    def test_colength_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(1, 3) if i == a else 0
                          for i in range(n)) for a in range(n)]
            gens += [tuple(rng.randint(0, 3) for _ in range(n))
                     for _ in range(rng.randint(0, 2))]
            gens = [g for g in gens if any(g)]
            J = normalize_generators(gens, n)
            K = product_ideal(J, rng.randint(0, 3), rng.randint(0, 3))
            assert colength(K) == brute_colength(K.generators, n)


class TestNewtonMembership:
    def test_interior_combination(self):
        J = normalize_generators([(2, 0), (0, 3)], 2)
        assert newton_membership(J, (1, Fraction(3, 2)))

    def test_below_the_hull(self):
        J = normalize_generators([(2, 0), (0, 3)], 2)
        assert not newton_membership(J, (1, 1))

    def test_vertices_belong(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if any(g)] or [(1,) * n]
            J = normalize_generators(gens, n)
            for g in J.generators:
                assert newton_membership(J, g)

    def test_monotone_upward(self):
        J = normalize_generators([(2, 0), (0, 3)], 2)
        rng = random.Random(4)
        for _ in range(25):
            q = (Fraction(rng.randint(0, 12), 4),
                 Fraction(rng.randint(0, 12), 4))
            if newton_membership(J, q):
                up = (q[0] + 1, q[1] + Fraction(1, 2))
                assert newton_membership(J, up)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            newton_membership(maximal_ideal(2), (1, 1, 1))
