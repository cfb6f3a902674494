import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lctk import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    MonomialOrder,
    MultiplicitySequence,
    NonIsolatedError,
    ProbeConfig,
    RunConfig,
    build_ideal_report,
    diagonal_lct,
    diagonal_mults,
    hilbert_table,
    is_isolated_zero,
    main_bound,
    maximal_ideal,
    newton_membership,
    normalize_generators,
    numeric_integrability_probe,
    order_sweep,
    parse_polynomial,
    refined_lelong,
    unit_ideal,
)
from lctk.lattice import MonomialIdeal, rational

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


# Every reader of a natural number in the multiplicity layer and the run
# configurations, fed one value v; each returns what it stored for v.
# main_bound((1, v)) is 1/v, so its denominator reads e_1.
NATURAL_READERS = {
    "ProbeConfig.grid": lambda v: ProbeConfig(grid=v).grid,
    "RunConfig.count": lambda v: RunConfig(count=v).count,
    "RunConfig.dim": lambda v: RunConfig(dim=v).dim,
    "RunConfig.max_degree": lambda v: RunConfig(max_degree=v).max_degree,
    "MultiplicitySequence": lambda v: MultiplicitySequence((1, v)).e[1],
    "main_bound": lambda v: main_bound((1, v)).denominator,
    "diagonal_mults": lambda v: diagonal_mults((1, v)).e[2],
    "hilbert_table": lambda v: hilbert_table(
        normalize_generators([(2, 0), (0, 3)], 2), v).base,
    "normalize_generators": lambda v: normalize_generators(
        [(v, 0), (0, 3)], 2).generators[1][0],
}


class TestNaturalNumberContract:
    @pytest.mark.parametrize("reader", sorted(NATURAL_READERS))
    @pytest.mark.parametrize("value", [True, "3", 2.5, -1], ids=repr)
    def test_rejected(self, reader, value):
        # not counted, parsed, rounded or made positive
        with pytest.raises(ValueError):
            NATURAL_READERS[reader](value)

    @pytest.mark.parametrize("reader", sorted(NATURAL_READERS))
    @pytest.mark.parametrize("value", [2.0, Fraction(4, 2)], ids=repr)
    def test_integral_values_stored_as_int(self, reader, value):
        stored = NATURAL_READERS[reader](value)
        assert stored == 2 and type(stored) is int

    @pytest.mark.parametrize("config, field, value", [
        (RunConfig, "dim", 0), (RunConfig, "max_degree", 0),
        (RunConfig, "count", 0), (ProbeConfig, "grid", 1)])
    def test_config_lower_bounds(self, config, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            config(**{field: value})

    def test_diagonal_lct_needs_a_weight(self):
        with pytest.raises(ValueError, match="need at least one weight"):
            diagonal_lct(())


# Every reader of a rational in the threshold layer, fed one value v; each
# returns what it read for v.
RATIONAL_READERS = {
    "diagonal_lct": lambda v: 1 / (diagonal_lct((v,))),
    "refined_lelong": lambda v: refined_lelong(maximal_ideal(1), (v,)),
    "newton_membership": lambda v: newton_membership(
        maximal_ideal(1), (v,)) and v,
    "lattice.rational": lambda v: rational(v, "v"),
}


class TestRationalContract:
    @pytest.mark.parametrize("reader", sorted(RATIONAL_READERS))
    @pytest.mark.parametrize("value", [
        True, "3", "1/2", float("nan"), float("inf"), None], ids=repr)
    def test_rejected(self, reader, value):
        # not counted or parsed: the CLI parses "p/q" text before a call
        with pytest.raises(ValueError):
            RATIONAL_READERS[reader](value)

    @pytest.mark.parametrize("reader", sorted(RATIONAL_READERS))
    @pytest.mark.parametrize("value", [3, Fraction(3, 2), 1.5], ids=repr)
    def test_accepted(self, reader, value):
        assert RATIONAL_READERS[reader](value) == value

    def test_pairs_with_text_or_bool(self):
        with pytest.raises(ValueError, match="each weight"):
            diagonal_lct(("3", True))
        with pytest.raises(ValueError, match="each coordinate"):
            refined_lelong(normalize_generators([(2, 0), (0, 3)], 2),
                           ("1/2", True))

    def test_probe_c(self):
        with pytest.raises(ValueError, match="c must be a finite rational"):
            numeric_integrability_probe(maximal_ideal(1), "3/4")

    def test_exact_values_kept(self):
        third = Fraction(1, 3)
        assert rational(third, "v") is third
        assert type(rational(3, "v")) is Fraction


class TestIsolated:
    def test_pure_powers(self):
        assert is_isolated_zero(normalize_generators([(2, 0), (0, 3)], 2))

    def test_single_mixed_generator(self):
        assert not is_isolated_zero(normalize_generators([(1, 1)], 2))

    def test_maximal(self):
        assert is_isolated_zero(maximal_ideal(2))

    def test_unit(self):
        assert is_isolated_zero(unit_ideal(3))

    def test_pure_power_reader(self):
        assert normalize_generators(
            [(0, 0, 5), (1, 1, 0), (3, 0, 0)], 3)._pure_powers == (3, None, 5)
        assert normalize_generators([(4,)], 1)._pure_powers == (4,)
        assert unit_ideal(2)._pure_powers == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6)))
    def test_pure_powers_decide_isolation(self, gens):
        J = normalize_generators(gens, len(gens[0]))
        powers = J._pure_powers
        for axis in range(J.n):
            pure = [g for g in J.generators
                    if all(e == 0 for i, e in enumerate(g) if i != axis)]
            assert [g[axis] for g in pure] == (
                [] if powers[axis] is None else [powers[axis]])
        assert is_isolated_zero(J) == (None not in powers)


class TestPurePowersReadOnce:
    """An ideal scans its generators for pure powers once and runs the
    one-facet test once, however many layers read them."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = Counter()
        for name in ("_pure_powers", "_pure_facet"):
            prop = MonomialIdeal.__dict__[name]

            def counted(ideal, compute=prop.func, name=name):
                calls[name] += 1
                return compute(ideal)
            monkeypatch.setattr(prop, "func", counted)
        return calls

    @pytest.mark.parametrize("gens, facet", [
        ([(2, 0), (0, 3)], (2, 3)),              # the cusp: one facet
        ([(3, 0), (1, 1), (0, 3)], None),        # two compact facets
    ])
    def test_one_scan_and_one_facet_test_per_report(self, reads, gens, facet):
        J = normalize_generators(gens, 2)
        assert build_ideal_report(J).all_ok
        assert J._pure_facet == facet
        assert reads == {"_pure_powers": 1, "_pure_facet": 1}

    def test_one_scan_per_initial_ideal_of_a_sweep(self, reads):
        polys = [parse_polynomial(t, 3)
                 for t in ("x1^2 + x2*x3", "x2^3 + x1*x3", "x3^2 - x1*x2")]
        orders = [MonomialOrder("grevlex"),
                  MonomialOrder("lex", precedence=(1, 2, 3)),
                  MonomialOrder("lex", precedence=(3, 2, 1))]
        cert = order_sweep(polys, orders)
        assert cert.mults is not None
        assert reads["_pure_powers"] == len(orders)


class TestPureMemoValueContract:
    """Reading the kept pure powers and facet changes no field, so ==, hash,
    repr and pickling of an ideal stay those of its fields, and the class
    stays frozen."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=5)))
    @example([(0, 0)])                 # the unit ideal
    @example([(1, 1), (2, 0)])         # no isolated zero
    @example([(3, 0), (1, 1), (0, 3)])
    def test_read_ideal_is_its_fresh_value(self, gens):
        n = len(gens[0])
        J = normalize_generators(gens, n)
        read = (J._pure_powers, J._pure_facet)
        fresh = normalize_generators(gens, n)
        back = pickle.loads(pickle.dumps(J))
        for other in (J, back):
            assert other == fresh
            assert hash(other) == hash(fresh)
            assert repr(other) == repr(fresh)
        assert (back._pure_powers, back._pure_facet) == read
        assert (fresh._pure_powers, fresh._pure_facet) == read
        for name in ("_pure_powers", "_pure_facet"):
            with pytest.raises(FrozenInstanceError):
                setattr(J, name, None)
        assert (J._pure_powers, J._pure_facet) == read


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
