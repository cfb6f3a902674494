"""Parity and oracle tests for both kernel lanes."""

import hashlib
import random
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctk import kernels

from conftest import brute_minimalize, brute_power_gens


def brute_cut_count(terms, n):
    covers = []
    for axis in range(n):
        best = None
        for mu, m in terms:
            if all(c == 0 for i, c in enumerate(mu) if i != axis):
                v = max(mu[axis], m)
                best = v if best is None or v < best else best
        assert best is not None
        covers.append(best)
    count = 0
    for beta in product(*[range(c) for c in covers]):
        inside = any(
            all(b >= x for b, x in zip(beta, mu)) and sum(beta) >= m
            for mu, m in terms)
        if not inside:
            count += 1
    return count


def random_cut_family(rng, n):
    terms = []
    for axis in range(n):
        k = rng.randint(1, 4)
        mu = tuple(k if i == axis else 0 for i in range(n))
        terms.append((mu, sum(mu) + rng.randint(0, 3)))
    for _ in range(rng.randint(0, 3)):
        mu = tuple(rng.randint(0, 4) for _ in range(n))
        terms.append((mu, sum(mu) + rng.randint(0, 3)))
    return terms


class TestCountCutComplement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_enumeration(self, kernel_lane, n):
        rng = random.Random(100 + n)
        for _ in range(60):
            terms = random_cut_family(rng, n)
            assert kernel_lane.count_cut_complement(terms, n) == \
                brute_cut_count(terms, n)

    def test_infinite_complement_raises(self, kernel_lane):
        from lctk.errors import NonIsolatedError

        with pytest.raises(NonIsolatedError):
            kernel_lane.count_cut_complement([((1, 1), 2)], 2)

    def test_unit_cover(self, kernel_lane):
        assert kernel_lane.count_cut_complement([((0, 0), 0)], 2) == 0


class TestMinimalize:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_bruteforce(self, kernel_lane, n):
        rng = random.Random(200 + n)
        for _ in range(80):
            vecs = [tuple(rng.randint(0, 6) for _ in range(n))
                    for _ in range(rng.randint(1, 12))]
            assert kernel_lane.minimalize(vecs, n) == brute_minimalize(vecs)


class TestProductsAndPowers:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_powers_against_bruteforce(self, kernel_lane, n):
        rng = random.Random(300 + n)
        for _ in range(25):
            gens = [tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if any(g)] or [(1,) * n]
            t = rng.randint(1, 4)
            got = kernel_lane.power_minimal(gens, t, n, 512) \
                if hasattr(kernel_lane, "power_minimal") \
                else kernels.power_minimal(gens, t, n, 512)
            assert got == brute_power_gens(gens, t, n)

    def test_degree_cap(self, kernel_lane):
        from lctk.errors import DegreeCapError

        with pytest.raises(DegreeCapError):
            kernel_lane.product_minimal([(300, 0)], [(300, 0)], 2, 512)


class TestDiagonalCells:
    def test_against_explicit_product(self, kernel_lane):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 3)
            a = tuple(sorted(rng.randint(1, 4) for _ in range(n)))
            r, t = rng.randint(0, 5), rng.randint(0, 4)
            gens = [tuple(a[i] if j == i else 0 for j in range(n))
                    for i in range(n)]
            if t == 0 and r == 0:
                want = 0
            else:
                power = brute_power_gens(gens, t, n)
                terms = [(g, sum(g) + r) for g in power]
                want = brute_cut_count(terms, n)
            assert kernel_lane.diagonal_cell(a, r, t) == want

    def test_4d_lane_parity(self):
        from lctk import _staircase_py as py

        cc = pytest.importorskip("lctk._staircase")
        rng = random.Random(23)
        for _ in range(30):
            a = tuple(sorted(rng.randint(1, 5) for _ in range(4)))
            r, t = rng.randint(0, 12), rng.randint(0, 10)
            assert py.diagonal_cell(a, r, t) == cc.diagonal_cell(a, r, t)


class TestDispatch:
    def test_large_dimension_uses_python_lane(self):
        # n = 5 exceeds the compiled counting kernel; must still work
        terms = [(tuple(2 if i == a else 0 for i in range(5)), 2)
                 for a in range(5)]
        assert kernels.count_cut_complement(terms, 5) == 2 ** 5

    def test_backend_reported(self):
        assert kernels.BACKEND in ("compiled", "python")


def seed_cover_bound(terms, n):
    """Per-axis scan of every term: the product of the per-axis covers,
    which bounds the count; None when some axis has no pure term."""
    bound = 1
    for axis in range(n):
        cover = None
        for mu, m in terms:
            if all(c == 0 for i, c in enumerate(mu) if i != axis):
                v = max(mu[axis], m)
                if cover is None or v < cover:
                    cover = v
        if cover is None:
            return None
        bound *= max(cover, 1)
    return bound


def axis_term(n, axis, k, m):
    return tuple(k if i == axis else 0 for i in range(n)), m


#: The largest top with top ** 4 < _MAX_COUNT = 2 ** 62.
TOP_N4 = 46340


@st.composite
def cut_families(draw):
    n = draw(st.integers(1, 5))
    coord = st.sampled_from([0, 0, 1, 2, 7, TOP_N4, TOP_N4 + 1,
                             kernels._MAX_COORD, kernels._MAX_COORD + 1])
    term = st.one_of(
        st.tuples(st.integers(0, n - 1), coord, coord).map(
            lambda t: axis_term(n, *t)),
        st.tuples(st.tuples(*[coord] * n), coord))
    return draw(st.lists(term, max_size=10)), n


@st.composite
def non_isolated_families(draw):
    """Small cut families in n = 2..4 with no pure term on one axis."""
    n = draw(st.integers(2, 4))
    missing = draw(st.integers(0, n - 1))
    terms = []
    for mu, m in draw(st.lists(
            st.tuples(st.tuples(*[st.integers(0, 6)] * n),
                      st.integers(0, 12)), min_size=1, max_size=8)):
        if not any(c for i, c in enumerate(mu) if i != missing):
            mu = axis_term(n, (missing + 1) % n, 1, 0)[0]
        terms.append((mu, m))
    return terms, n


try:
    from lctk import _staircase as compiled_lane
except ImportError:
    compiled_lane = None


class TestGuard:
    """The int64 guard of the compiled lane, checked without counting."""

    @pytest.fixture
    def compiled_present(self, monkeypatch):
        # the guard only reads whether an extension is loaded
        monkeypatch.setattr(kernels, "_compiled", object())

    @settings(max_examples=300, deadline=None)
    @given(cut_families())
    def test_bound_matches_per_axis_scan(self, family):
        # one bound on top, the largest coordinate or cut; each per-axis
        # cover is at most top, so an admitted family's cover product is
        # below _MAX_COUNT or it has none
        terms, n = family
        top = max((c for mu, m in terms for c in mu + (m,)), default=None)
        with mock.patch.object(kernels, "_compiled", object()):
            admitted = kernels._compiled_ok_terms(terms, n)
        assert admitted == (
            n <= 4 and top is not None and top <= kernels._MAX_COORD
            and top ** n < kernels._MAX_COUNT)
        if admitted:
            bound = seed_cover_bound(terms, n)
            assert bound is None or bound < kernels._MAX_COUNT

    @pytest.mark.skipif(compiled_lane is None,
                        reason="compiled extension not built")
    @settings(max_examples=200, deadline=None)
    @given(non_isolated_families())
    def test_non_isolated_raises_on_both_lanes(self, family):
        from lctk import _staircase_py as py
        from lctk.errors import NonIsolatedError

        terms, n = family
        with mock.patch.object(kernels, "_compiled", compiled_lane):
            assert kernels._compiled_ok_terms(terms, n)
        for lane in (py, compiled_lane):
            with pytest.raises(NonIsolatedError):
                lane.count_cut_complement(terms, n)

    def test_cover_bound_below_and_at_max_count(self, compiled_present,
                                                monkeypatch):
        below = [axis_term(4, axis, TOP_N4, 0) for axis in range(4)]
        assert seed_cover_bound(below, 4) == TOP_N4 ** 4
        assert kernels._compiled_ok_terms(below, 4)
        # a cut of TOP_N4 + 1 leaves the cover product below _MAX_COUNT,
        # but top ** 4 is not
        above = below[:3] + [axis_term(4, 3, TOP_N4, TOP_N4 + 1)]
        assert seed_cover_bound(above, 4) < kernels._MAX_COUNT
        assert not kernels._compiled_ok_terms(above, 4)
        monkeypatch.setattr(kernels, "_MAX_COUNT", TOP_N4 ** 4)
        assert not kernels._compiled_ok_terms(below, 4)

    @pytest.mark.parametrize("where", ["mu", "m"])
    def test_coordinate_limit(self, compiled_present, where):
        def family(c):
            diagonal = ((c, 1), 0) if where == "mu" else ((1, 1), c)
            return [axis_term(2, 0, 3, 3), axis_term(2, 1, 3, 3), diagonal]

        assert kernels._compiled_ok_terms(family(kernels._MAX_COORD), 2)
        assert not kernels._compiled_ok_terms(
            family(kernels._MAX_COORD + 1), 2)

    def test_axis_without_pure_term(self, compiled_present):
        # admitted: the kernel itself raises NonIsolatedError
        from lctk import _staircase_py as py
        from lctk.errors import NonIsolatedError

        terms = [axis_term(3, 0, 2, 2), axis_term(3, 2, 2, 2),
                 ((1, 1, 0), 2), ((0, 1, 1), 2)]
        assert seed_cover_bound(terms, 3) is None
        assert kernels._compiled_ok_terms(terms, 3)
        with pytest.raises(NonIsolatedError):
            py.count_cut_complement(terms, 3)

    def test_zero_vector_covers_every_axis(self, compiled_present):
        assert seed_cover_bound([((0, 0, 0), 5)], 3) == 125
        terms = [((0, 0, 0), 5), axis_term(3, 1, 2, 3)]
        assert seed_cover_bound(terms, 3) == 5 * 3 * 5
        assert kernels._compiled_ok_terms(terms, 3)
        assert kernels._compiled_ok_terms([((0, 0), 0)], 2)

    def test_empty_terms(self, compiled_present):
        assert seed_cover_bound([], 2) is None
        assert not kernels._compiled_ok_terms([], 2)

    def test_dimension_five_takes_python_lane(self, compiled_present):
        terms = [axis_term(5, axis, 2, 2) for axis in range(5)]
        assert not kernels._compiled_ok_terms(terms, 5)
        assert kernels._compiled_ok_terms(
            [axis_term(4, axis, 2, 2) for axis in range(4)], 4)


class TestTableColumn:
    """One guard per table column, taken at the column's largest r."""

    @settings(max_examples=300, deadline=None)
    @given(cut_families(), st.sampled_from([0, 1, 2, 7, kernels._MAX_COORD]))
    def test_guard_holds_at_smaller_m(self, family, delta):
        terms, n = family
        raised = [(mu, m + delta) for mu, m in terms]
        with mock.patch.object(kernels, "_compiled", object()):
            if kernels._compiled_ok_terms(raised, n):
                assert kernels._compiled_ok_terms(terms, n)

    def test_matches_per_cell_python_counts(self):
        from lctk import _staircase_py as py
        from lctk.report import random_isolated_ideal

        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 4)
            ideal = random_isolated_ideal(rng, n, [9, 5, 3, 2][n - 1])
            if ideal.is_unit:
                continue
            for t in (1, 2, 3):
                power = kernels.power_minimal(ideal.generators, t, n, 512)
                rs = range(t, t + n + 3)
                assert kernels.table_column(power, rs, n) == [
                    py.count_cut_complement(
                        [(g, sum(g) + r) for g in power], n) for r in rs]

    def test_column_takes_one_lane(self, monkeypatch):
        from lctk import _staircase_py as py

        calls = []

        def lane(name):
            def count(terms, n):
                calls.append(name)
                return py.count_cut_complement(terms, n)
            return mock.Mock(count_cut_complement=count)

        power = kernels.power_minimal([(2, 0), (1, 1), (0, 3)], 2, 2, 512)
        want = [py.count_cut_complement([(g, sum(g) + r) for g in power], 2)
                for r in range(6)]
        monkeypatch.setattr(kernels, "_compiled", lane("compiled"))
        monkeypatch.setattr(kernels, "_py", lane("python"))
        # the degrees of J^2 reach 6: at r = 5 a term crosses the limit
        monkeypatch.setattr(kernels, "_MAX_COORD", 10)
        assert kernels.table_column(power, range(5), 2) == want[:5]
        assert calls == ["compiled"] * 5
        calls.clear()
        assert kernels.table_column(power, range(6), 2) == want
        assert calls == ["python"] * 6


#: sha256 of the Cython source and of the C file generated from it.  The
#: compiled lane is built from the shipped C, so a change to either file
#: must regenerate the C with Cython and update both pins together.
STAIRCASE_PINS = {
    "_staircase.pyx":
        "a995599b42ae45b0991434c6655b433d8c74d28d50f5030d1ac322c6331846b6",
    "_staircase.c":
        "79922c450c44f2f9b829f84f4c916f9834d1d5633e9d2cf481089fb4127b02be",
}


@pytest.mark.parametrize("name", sorted(STAIRCASE_PINS))
def test_generated_kernel_source_pinned(name):
    path = Path(kernels.__file__).with_name(name)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == STAIRCASE_PINS[name], (
        f"{name} changed (sha256 {digest}); _staircase.c must be "
        f"regenerated from _staircase.pyx with Cython, and both pins in "
        f"STAIRCASE_PINS updated together")
