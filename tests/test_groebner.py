import random
from fractions import Fraction as F

import pytest

from lctk import (
    MonomialOrder,
    PolynomialParseError,
    ResourceCapError,
    buchberger,
    certified_lct_lower_bound,
    default_order,
    diagonal_lct,
    initial_ideal,
    kiselman_lct,
    order_sweep,
    parse_polynomial,
)
from lctk.groebner import normal_form, s_polynomial
from lctk.report import random_isolated_ideal

LEX12 = MonomialOrder("lex", precedence=(1, 2))
LEX21 = MonomialOrder("lex", precedence=(2, 1))


class TestParser:
    def test_cusp(self):
        p = parse_polynomial("x1^2 + x2^3", 2)
        assert p.terms == {(2, 0): F(1), (0, 3): F(1)}

    def test_cancellation_to_zero(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("2/3*x1*x2 - x1*x2 + 1/3*x1*x2", 2)

    def test_constant_term(self):
        p = parse_polynomial("x1^2*x2 - 5", 2)
        assert p.terms == {(2, 1): F(1), (0, 0): F(-5)}
        assert p.constant_term() == -5

    def test_rational_coefficients(self):
        p = parse_polynomial("1/2*x1 - 3/4*x2", 2)
        assert p.terms == {(1, 0): F(1, 2), (0, 1): F(-3, 4)}

    def test_leading_minus(self):
        p = parse_polynomial("-x1 + x2", 2)
        assert p.terms == {(1, 0): F(-1), (0, 1): F(1)}

    def test_whitespace_insignificant(self):
        a = parse_polynomial("x1^2+2/3*x1*x2^3-x2^5", 2)
        b = parse_polynomial("  x1^2 + 2/3 * x1 * x2^3 - x2 ^ 5 ", 2)
        assert a.terms == b.terms

    def test_variable_out_of_range(self):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial("x1 + x3", 2)
        assert err.value.position == 5

    def test_unexpected_character(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x1 + (x2)", 2)

    def test_dangling_operator(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x1 +", 2)

    def test_empty(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("   ", 2)


class TestOrders:
    def test_lex_precedence(self):
        assert LEX12.key((2, 0)) > LEX12.key((0, 3))
        assert LEX21.key((0, 3)) > LEX21.key((2, 0))

    def test_grevlex_standard(self):
        g = default_order(3)
        # degree first
        assert g.key((0, 0, 2)) > g.key((1, 0, 0))
        # same degree: smaller exponent on the last variable wins
        assert g.key((1, 2, 0)) > g.key((2, 0, 1))

    def test_weighted(self):
        w = MonomialOrder("weighted", precedence=(1, 2), weights=(3, 1),
                          tiebreak="lex")
        assert w.key((1, 0)) > w.key((0, 2))
        assert w.key((0, 3)) == (3, (0, 3))

    def test_bad_precedence(self):
        with pytest.raises(ValueError):
            MonomialOrder("lex", precedence=(1, 3)).key((0, 0))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            MonomialOrder("degrevlex")

    def test_weighted_needs_weights(self):
        with pytest.raises(ValueError):
            MonomialOrder("weighted")

    @pytest.mark.parametrize("weights", [(1,), (1, 5, 7)])
    def test_weighted_length_must_match(self, weights):
        order = MonomialOrder("weighted", weights=weights)
        with pytest.raises(ValueError, match="expected 2"):
            order.key((0, 0))
        with pytest.raises(ValueError, match="expected 2"):
            buchberger([parse_polynomial("x1^2 + x2^3", 2)], order)


class TestBuchberger:
    def test_principal_ideal_fixed_point(self):
        p = parse_polynomial("x1^2 + x2^3", 2)
        gb = buchberger([p], LEX12)
        assert len(gb) == 1
        assert gb[0].terms == p.terms

    def test_already_a_basis(self):
        gb = buchberger([parse_polynomial("x1", 2),
                         parse_polynomial("x2", 2)], LEX12)
        assert sorted(next(iter(g.terms)) for g in gb) == [(0, 1), (1, 0)]

    def test_hand_run(self):
        gb = buchberger([parse_polynomial("x1^2 - x2", 2),
                         parse_polynomial("x2^2 - x1", 2)], LEX12)
        bases = {frozenset(g.terms.items()) for g in gb}
        want_a = frozenset({(1, 0): F(1), (0, 2): F(-1)}.items())
        want_b = frozenset({(0, 4): F(1), (0, 1): F(-1)}.items())
        assert bases == {want_a, want_b}

    def test_all_s_polynomials_reduce_to_zero(self):
        polys = [parse_polynomial("x1^2 - x2", 2),
                 parse_polynomial("x2^2 - x1", 2),
                 parse_polynomial("x1*x2 - 1/2*x2", 2)]
        for order in (LEX12, LEX21, default_order(2)):
            gb = buchberger(polys, order)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    s = s_polynomial(gb[i], gb[j], order)
                    assert s is None or normal_form(s, gb, order) is None

    def test_deterministic_under_permutation(self):
        polys = [parse_polynomial("x1^2 - x2", 2),
                 parse_polynomial("x2^2 - x1", 2)]
        a = buchberger(polys, LEX12)
        b = buchberger(list(reversed(polys)), LEX12)
        assert [g.terms for g in a] == [g.terms for g in b]

    def test_reduction_cap(self):
        polys = [parse_polynomial("x1^3 - x2", 2),
                 parse_polynomial("x2^3 - x1", 2)]
        with pytest.raises(ResourceCapError):
            buchberger(polys, LEX12, max_reductions=1)


class TestInitialIdeal:
    def test_lex_leading_square(self):
        gb = buchberger([parse_polynomial("x1^2 + x2^3", 2)], LEX12)
        assert initial_ideal(gb, LEX12).generators == ((2, 0),)

    def test_other_lex(self):
        gb = buchberger([parse_polynomial("x1^2 + x2^3", 2)], LEX21)
        assert initial_ideal(gb, LEX21).generators == ((0, 3),)

    def test_maximal(self):
        gb = buchberger([parse_polynomial("x1", 2),
                         parse_polynomial("x2", 2)], LEX12)
        assert initial_ideal(gb, LEX12).generators == ((0, 1), (1, 0))


class TestCertifiedLowerBound:
    def test_cusp_lex(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^2 + x2^3", 2)], LEX12)
        assert cert.c_initial == F(1, 2)
        assert cert.initial.generators == ((2, 0),)
        # the exact threshold of the cusp is 5/6, so the bound is valid
        assert cert.c_initial <= diagonal_lct((2, 3))

    def test_maximal_is_sharp(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1", 2), parse_polynomial("x2", 2)], LEX12)
        assert cert.c_initial == 2
        assert cert.mult_bound == 2

    def test_grevlex_pair(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^2 - x2^3", 2),
             parse_polynomial("x2^4", 2)], default_order(2))
        assert cert.c_initial == F(2, 3)
        assert cert.initial.generators == ((0, 3), (2, 1), (4, 0))
        assert cert.mults.e == (1, 3, 10)
        assert cert.mult_bound == F(19, 30)
        assert cert.mult_bound <= cert.c_initial

    def test_pure_power_input_is_sharp(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^2", 2), parse_polynomial("x2^3", 2)],
            default_order(2))
        assert cert.c_initial == F(5, 6)
        assert cert.mult_bound == F(5, 6)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            certified_lct_lower_bound(
                [parse_polynomial("x1^2 - 5", 2)], LEX12)

    def test_monomial_inputs_match_kiselman(self):
        rng = random.Random(42)
        for _ in range(15):
            J = random_isolated_ideal(rng, 2, 4)
            polys = []
            for g in J.generators:
                text = "*".join(f"x{i+1}^{e}" for i, e in enumerate(g) if e)
                polys.append(parse_polynomial(text, 2))
            cert = certified_lct_lower_bound(polys, default_order(2))
            assert cert.c_initial == kiselman_lct(J).c

    def test_mult_bound_never_exceeds_threshold(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^3 + x2^2*x1 + x2^5", 2)],
            default_order(2))
        if cert.mult_bound is not None:
            assert cert.mult_bound <= cert.c_initial


class TestOrderSweep:
    def test_best_of_two_lex(self):
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        cert = order_sweep(polys, [LEX12, LEX21])
        assert cert.c_initial == F(1, 2)

    def test_single_order_matches_direct(self):
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        assert order_sweep(polys, [LEX21]).c_initial == \
            certified_lct_lower_bound(polys, LEX21).c_initial

    def test_order_independent_input(self):
        polys = [parse_polynomial("x1", 2), parse_polynomial("x2", 2)]
        cert = order_sweep(polys, [LEX12, LEX21, default_order(2)])
        assert cert.c_initial == 2

    def test_empty_orders_rejected(self):
        with pytest.raises(ValueError):
            order_sweep([parse_polynomial("x1", 1)], [])

    def test_invariant_error_of_one_order_propagates(self, monkeypatch):
        from lctk import InvariantError, groebner

        real = groebner.certified_lct_lower_bound

        def broken_for_lex21(polys, order, **kw):
            if order == LEX21:
                raise InvariantError("injected")
            return real(polys, order, **kw)

        monkeypatch.setattr(groebner, "certified_lct_lower_bound",
                            broken_for_lex21)
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        with pytest.raises(InvariantError, match="injected"):
            order_sweep(polys, [LEX12, LEX21])

    def test_resource_error_of_one_order_is_tolerated(self, monkeypatch):
        from lctk import DegreeCapError, groebner

        real = groebner.certified_lct_lower_bound

        def capped_for_lex21(polys, order, **kw):
            if order == LEX21:
                raise DegreeCapError("injected")
            return real(polys, order, **kw)

        monkeypatch.setattr(groebner, "certified_lct_lower_bound",
                            capped_for_lex21)
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        assert order_sweep(polys, [LEX12, LEX21]).c_initial == \
            real(polys, LEX12).c_initial
